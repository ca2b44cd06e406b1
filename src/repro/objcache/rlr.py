"""ObjectRLR: the paper's RLR policy transplanted to variable-size objects.

RLR (§IV) scores each candidate with ``P = 8*P_age + P_type + P_hit`` and
evicts the lowest-priority line, where ``P_age`` protects lines younger
than the reuse-distance estimate ``RD = 2 x average preuse``.  The object
transplant keeps that structure — including the hardware-faithful
:class:`repro.core.rd_estimator.ReuseDistanceEstimator` — and maps the
components to the object world:

* ``P_age``: 8 when the object's age (requests since last access) is
  within the RD estimate — it is expected back soon;
* ``P_type``: 1 when the object had been requested *before* its admission
  (a re-admitted object is unlikely to be a one-hit wonder — the object
  analogue of RLR's demand-vs-prefetch access-type bit);
* ``P_hit``: 1 when the object has hit since admission.

The size-aware variant subtracts a trained **size-bucket term**: priorities
are scaled by 16 and ``size_weight * size_bucket`` (log2 of the object
size) is subtracted, so among otherwise-equal candidates the largest
objects go first — they buy back the most bytes per eviction and, in
traces where big objects are cold (inverse size-popularity correlation,
scan pollution), they are also the least likely to hit again.

``size_weight = 0`` is exactly the size-agnostic transplant, which is how
the trainer (`repro.objcache.train`) searches the weight: sweep the scale,
keep what wins byte-hit-rate.

Like production samplers (and unlike the 16-way CPU cache where scanning
the whole set is free), the victim scan examines the ``sample`` least
recently used residents rather than the full store.  It scans them as two
columns kept in LRU -> MRU order: each resident's last-access stamp and its
:meth:`~ObjectRLRPolicy.static_priority`.  Stamps rise strictly along the
order (one access per request), so the ``P_age = 8`` candidates are a
suffix one ``bisect`` finds; a ``min`` per side and one ``list.index``
then pick the victim, with no Python call per candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

from repro.core.rd_estimator import ReuseDistanceEstimator

from .core import MAX_SIZE_BUCKET, size_bucket
from .policies import ObjectEvictionPolicy, register_object_policy

#: Size-bucket weight the bundled trainer settles on for the golden Zipfian
#: scenarios (see tests/test_objcache_train.py, which re-derives it).
DEFAULT_SIZE_WEIGHT = 16

PRIORITY_SCALE = 16
AGE_PRIORITY = 8 * PRIORITY_SCALE  # P_age = 8, scaled


class ObjectRLRPolicy(ObjectEvictionPolicy):
    """RLR priorities over object metadata, with an optional size term.

    Args:
        size_weight: units of priority subtracted per size bucket
            (0 = size-agnostic RLR).
        sample: how many LRU-end candidates each eviction scores.
        log2_hits: RD epoch length (paper default 5 -> 32 hits).
    """

    name = "rlr"

    def __init__(self, size_weight: int = 0, sample: int = 256,
                 log2_hits: int = 5):
        if sample < 1:
            raise ValueError(f"rlr sample must be >= 1, got {sample}")
        self.size_weight = size_weight
        self.sample = sample
        self.name = "rlr_size" if size_weight else "rlr"
        self.rd = ReuseDistanceEstimator(log2_hits=log2_hits, initial_rd=0)
        self._order = {}  # key -> stamp of its last access, LRU -> MRU
        self._static = {}  # key -> static_priority, in the same order

    def on_admit(self, obj, now):
        self._order[obj.key] = now
        self._static[obj.key] = self.static_priority(obj)

    def on_hit(self, obj, now):
        # The cache updates obj.last_access before calling on_hit, so the
        # preuse distance (gap between consecutive accesses) comes from the
        # policy's own stamps, exactly like the age counters RLR samples in
        # hardware.
        self.rd.record_demand_hit(now - self._order.pop(obj.key))
        self._order[obj.key] = now
        del self._static[obj.key]
        self._static[obj.key] = self.static_priority(obj)

    def on_evict(self, obj, now):
        self._order.pop(obj.key, None)
        self._static.pop(obj.key, None)

    def static_priority(self, obj) -> int:
        """The scaled priority without ``P_age``: fixed between accesses,
        because a resident's size and ``seen_before`` never change."""
        score = 0
        if obj.seen_before:
            score += 1  # P_type: re-admitted, not a one-hit wonder
        if obj.hits > 0:
            score += 1  # P_hit
        return score * PRIORITY_SCALE - self.size_weight * size_bucket(
            obj.size
        )

    def priority(self, obj, now: int) -> int:
        young = obj.age(now) <= self.rd.rd  # P_age: inside the reuse window
        return self.static_priority(obj) + (AGE_PRIORITY if young else 0)

    def victim(self, residents, incoming, now):
        stamps = list(islice(self._order.values(), self.sample))
        scores = list(islice(self._static.values(), self.sample))
        scores.reverse()  # MRU first, so index() finds the most recent
        young = len(stamps) - bisect_left(stamps, now - self.rd.rd)
        old_best = min(scores[young:], default=None)
        young_best = min(scores[:young], default=None)
        # Lowest priority first; ties evict the *most recent* candidate
        # (paper Fig. 7: RLR skews victims toward recent lines).
        if young_best is not None and (
            old_best is None or young_best + AGE_PRIORITY <= old_best
        ):
            position = scores.index(young_best)
        elif old_best is not None:
            position = scores.index(old_best, young)
        else:
            return None  # empty cache
        return next(islice(self._order, len(scores) - 1 - position, None))


@register_object_policy(name="rlr")
def _rlr_factory(**params):
    params.setdefault("size_weight", 0)
    return ObjectRLRPolicy(**params)


@register_object_policy(name="rlr_size")
def _rlr_size_factory(**params):
    params.setdefault("size_weight", DEFAULT_SIZE_WEIGHT)
    return ObjectRLRPolicy(**params)
