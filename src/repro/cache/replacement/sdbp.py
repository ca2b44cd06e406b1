"""SDBP — Sampling Dead Block Prediction (Khan, Tian & Jimenez, MICRO 2010).

Cited as [17] in the paper: a PC-based predictor learns which blocks are
*dead* (will not be reused before eviction) from a small sampler that
mimics a handful of cache sets, and the replacement policy preferentially
evicts (or bypasses) predicted-dead blocks.

Reduced but faithful structure:

* **skewed predictor** — three tables of 2-bit saturating counters indexed
  by different hashes of the block's last-touch PC; dead if the sum crosses
  a threshold;
* **sampler** — dedicated sampled sets keep partial tags + last-touch PCs
  in a small LRU array; a sampler eviction without reuse trains "dead", a
  sampler hit trains "alive";
* **replacement** — evict predicted-dead lines first, else LRU.
"""

from __future__ import annotations

from repro.cache.replacement.base import BYPASS, ReplacementPolicy, register_policy

TABLES = 3
TABLE_SIZE = 4096
COUNTER_MAX = 3
#: Sum over the three tables at/above which a block is predicted dead.
DEAD_THRESHOLD = 8


def _hashes(pc: int):
    return (
        (pc ^ (pc >> 5)) & (TABLE_SIZE - 1),
        (pc ^ (pc >> 11)) & (TABLE_SIZE - 1),
        (pc ^ (pc >> 17) ^ 0x1A5) & (TABLE_SIZE - 1),
    )


class _SkewedPredictor:
    def __init__(self) -> None:
        self._tables = [[0] * TABLE_SIZE for _ in range(TABLES)]

    def confidence(self, pc: int) -> int:
        return sum(
            table[index] for table, index in zip(self._tables, _hashes(pc))
        )

    def is_dead(self, pc: int) -> bool:
        return self.confidence(pc) >= DEAD_THRESHOLD

    def train(self, pc: int, dead: bool) -> None:
        step = 1 if dead else -1
        for table, index in zip(self._tables, _hashes(pc)):
            table[index] = max(0, min(COUNTER_MAX, table[index] + step))


class _SamplerSet:
    """A small LRU array of (partial tag, last PC, reused) entries."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.entries = []  # most recent last: (partial_tag, pc, reused)

    def access(self, partial_tag: int, pc: int, predictor) -> None:
        for index, (tag, last_pc, _) in enumerate(self.entries):
            if tag == partial_tag:
                # Sampler hit: the previous touch was NOT the last -> alive.
                predictor.train(last_pc, dead=False)
                self.entries.pop(index)
                self.entries.append((partial_tag, pc, True))
                return
        if len(self.entries) >= self.ways:
            victim_tag, victim_pc, _ = self.entries.pop(0)
            # Evicted without reuse since its last touch -> dead.
            predictor.train(victim_pc, dead=True)
        self.entries.append((partial_tag, pc, False))


@register_policy
class SDBPPolicy(ReplacementPolicy):
    """Sampling dead-block prediction replacement (+ optional bypass)."""

    name = "sdbp"
    uses_pc = True
    SAMPLED_SETS = 32

    def __init__(self, enable_bypass: bool = False) -> None:
        super().__init__()
        self.enable_bypass = enable_bypass
        self.predictor = _SkewedPredictor()

    def _post_bind(self):
        self._line_pc = [[0] * self.ways for _ in range(self.num_sets)]
        self._dead = [[False] * self.ways for _ in range(self.num_sets)]
        stride = max(1, self.num_sets // self.SAMPLED_SETS)
        self._samplers = {
            set_index: _SamplerSet(max(2, self.ways // 2))
            for set_index in range(0, self.num_sets, stride)
        }

    def _sample(self, set_index: int, access) -> None:
        sampler = self._samplers.get(set_index)
        if sampler is None or not access.access_type.is_demand:
            return
        partial_tag = (access.line_address >> 4) & 0xFFFF
        sampler.access(partial_tag, access.pc, self.predictor)

    def _mark(self, set_index: int, way: int, access) -> None:
        self._line_pc[set_index][way] = access.pc
        self._dead[set_index][way] = self.predictor.is_dead(access.pc)

    def on_hit(self, set_index, way, line, access):
        self._sample(set_index, access)
        self._mark(set_index, way, access)

    def on_miss(self, set_index, access):
        self._sample(set_index, access)

    def on_fill(self, set_index, way, line, access):
        self._mark(set_index, way, access)

    def victim(self, set_index, cache_set, access):
        valid = cache_set.valid_ways()
        dead = [way for way in valid if self._dead[set_index][way]]
        if not dead and self.enable_bypass and self.predictor.is_dead(access.pc):
            return BYPASS
        candidates = dead or valid
        return min(candidates, key=lambda way: cache_set.lines[way].stamp)

    @classmethod
    def overhead_bits(cls, config):
        predictor = TABLES * TABLE_SIZE * 2
        per_line = 1  # dead bit (PC trace is sampled, not stored per line)
        sampler = cls.SAMPLED_SETS * 8 * (16 + 15)
        return config.num_lines * per_line + predictor + sampler
