"""A single cache set: ways plus the Table II set-level counters."""

from __future__ import annotations

from repro.cache.block import CacheLine


class CacheSet:
    """One set of a set-associative cache.

    Maintains the set-level features the paper's RL agent consumes:
    ``accesses`` (total set accesses), ``accesses_since_miss`` (reset on every
    miss), and ``misses``.  ``accesses`` doubles as the set's clock: lines
    record it when filled and hit (see :class:`CacheLine`), so recency and
    ages cost nothing to maintain.  ``way_of`` maps the tag of every valid
    line to its way.
    """

    __slots__ = ("index", "ways", "lines", "way_of", "accesses",
                 "accesses_since_miss", "misses")

    def __init__(self, index: int, ways: int, lines=None) -> None:
        self.index = index
        self.ways = ways
        self.lines = lines or [CacheLine() for _ in range(ways)]
        self.way_of = {self.lines[way].tag: way for way in self.valid_ways()}
        self.accesses = 0
        self.accesses_since_miss = 0
        self.misses = 0

    def find(self, tag: int):
        """Return the way index holding ``tag``, or None."""
        return self.way_of.get(tag)

    def free_way(self):
        """Return the index of an invalid way, or None if the set is full."""
        for way, line in enumerate(self.lines):
            if not line.valid:
                return way
        return None

    def fill(self, way: int, tag: int, line_address: int, access) -> CacheLine:
        """Install ``access``'s line in ``way`` (evicting any resident) as
        the most recently used line."""
        line = self.lines[way]
        if line.valid:
            del self.way_of[line.tag]
        self.way_of[tag] = way
        line.fill(tag, line_address, access, self.accesses)
        return line

    def invalidate(self, way: int) -> None:
        """Drop the line in ``way``; the way becomes free."""
        line = self.lines[way]
        del self.way_of[line.tag]
        line.valid = False
        line.tag = -1
        line.line_address = -1
        line.dirty = False

    def lru_way(self) -> int:
        """Way index of the least recently used valid line."""
        best_way, best_stamp = 0, float("inf")
        for way, line in enumerate(self.lines):
            if line.valid and line.stamp < best_stamp:
                best_way, best_stamp = way, line.stamp
        return best_way

    def ranks(self) -> list:
        """Recency position of every way: 0 = LRU .. ways-1 = MRU.

        A valid line's rank is ``ways-1`` minus the number of valid lines
        with a newer stamp, so a partly filled set ranks its lines from the
        top; invalid ways rank 0.  Readers that need positions rather than
        order (RL features, decision logs, the serve codec) call this once
        per snapshot.
        """
        stamps = [line.stamp for line in self.lines]
        oldest_first = sorted(self.way_of.values(), key=stamps.__getitem__)
        ranks = [0] * self.ways
        for rank, way in enumerate(oldest_first, self.ways - len(oldest_first)):
            ranks[way] = rank
        return ranks

    def valid_ways(self):
        """Indices of valid ways."""
        return [way for way, line in enumerate(self.lines) if line.valid]
