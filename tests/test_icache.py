"""Instruction-cache model tests: a hypothesis differential test
against a naive reference implementation, and capacity-miss coverage
under the big-kernel workloads (whose code exceeds the cache)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.model import ICacheModel, default_source_arch
from repro.cache.icache import InstructionCache


def _cache(ways=2, sets=4, line_size=16, penalty=10) -> InstructionCache:
    return InstructionCache(ICacheModel(ways=ways, sets=sets,
                                        line_size=line_size,
                                        miss_penalty=penalty))


class NaiveCache:
    """Reference: per-set list ordered most-recent-first."""

    def __init__(self, ways, sets, line_size):
        self.ways = ways
        self.sets = sets
        self.line_size = line_size
        self.state = [[] for _ in range(sets)]

    def access(self, addr):
        line = addr // self.line_size
        index = line % self.sets
        tag = line // self.sets
        entries = self.state[index]
        if tag in entries:
            entries.remove(tag)
            entries.insert(0, tag)
            return True
        entries.insert(0, tag)
        if len(entries) > self.ways:
            entries.pop()
        return False


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = _cache()
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.access(0x104)  # same line

    def test_distinct_lines(self):
        cache = _cache(line_size=16)
        assert not cache.access(0x0)
        assert not cache.access(0x10)

    def test_two_way_conflict(self):
        cache = _cache(ways=2, sets=4, line_size=16)
        # three lines mapping to set 0 (stride = sets*line = 64)
        assert not cache.access(0x00)
        assert not cache.access(0x40)
        assert cache.access(0x00)
        assert cache.access(0x40)
        assert not cache.access(0x80)  # evicts LRU (0x00)
        assert not cache.access(0x00)

    def test_direct_mapped_thrash(self):
        cache = _cache(ways=1, sets=4, line_size=16)
        assert not cache.access(0x00)
        assert not cache.access(0x40)
        assert not cache.access(0x00)

    def test_penalty(self):
        cache = _cache(penalty=7)
        assert cache.access_penalty(0x0) == 7
        assert cache.access_penalty(0x0) == 0

    def test_stats(self):
        cache = _cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x40)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert 0 < cache.stats.miss_rate < 1

    def test_reset(self):
        cache = _cache()
        cache.access(0x0)
        cache.reset()
        assert not cache.access(0x0)
        assert cache.stats.misses == 1

    def test_lookup_does_not_modify(self):
        cache = _cache()
        assert not cache.lookup(0x0)
        assert not cache.access(0x0)  # still a miss: lookup changed nothing

    def test_initial_victim_is_way_zero(self):
        # Matches the zero-initialized LRU words of generated code.
        cache = _cache(ways=2, sets=1, line_size=16)
        cache.access(0x00)   # fills way 0
        contents = cache.contents()
        assert contents[0][0] is not None
        assert contents[0][1] is None

    def test_split(self):
        cache = _cache(ways=2, sets=4, line_size=16)
        tag, index = cache.split(0x45)
        assert index == (0x45 // 16) % 4
        assert tag == (0x45 // 16) // 4

    def test_line_of(self):
        cache = _cache(line_size=32)
        assert cache.line_of(0x47) == 0x40


@settings(max_examples=300, deadline=None)
@given(
    ways=st.integers(min_value=1, max_value=4),
    sets_log=st.integers(min_value=0, max_value=4),
    addrs=st.lists(st.integers(min_value=0, max_value=0x3FF), min_size=1,
                   max_size=120),
)
def test_against_naive_model(ways, sets_log, addrs):
    sets = 1 << sets_log
    cache = _cache(ways=ways, sets=sets, line_size=16)
    naive = NaiveCache(ways, sets, 16)
    for addr in addrs:
        assert cache.access(addr) == naive.access(addr), (
            f"divergence at {addr:#x}")


@settings(max_examples=200, deadline=None)
@given(
    ways=st.integers(min_value=1, max_value=4),
    sets_log=st.integers(min_value=0, max_value=3),
    addrs=st.lists(st.integers(min_value=0, max_value=0x3FF), min_size=1,
                   max_size=60),
    offset=st.integers(min_value=0, max_value=15),
)
def test_reaccessing_most_recent_line_is_a_pure_hit(ways, sets_log, addrs,
                                                    offset):
    """The reference ISS counts a fetch from the line it fetched last as
    a hit without calling :meth:`InstructionCache.access`; that is exact
    only because such an access changes nothing but ``stats.hits``."""
    cache = _cache(ways=ways, sets=1 << sets_log, line_size=16)
    for addr in addrs:
        cache.access(addr)
    tags, ages = cache.contents(), [list(a) for a in cache._lru]
    hits, misses = cache.stats.hits, cache.stats.misses
    assert cache.access(cache.line_of(addrs[-1]) + offset)
    assert cache.contents() == tags
    assert cache._lru == ages
    assert (cache.stats.hits, cache.stats.misses) == (hits + 1, misses)


class TestBigKernelCapacityMisses:
    """The big kernels genuinely overflow the 2 KiB instruction cache.

    The small Section-4 kernels all fit in the default cache (every
    miss is compulsory), so until the big kernels landed, the icache
    model's replacement behaviour was never exercised by a whole
    program — only by the synthetic traces above.  ``dct8x8`` and
    ``viterbi`` must incur *capacity* misses: more misses under the
    default geometry than under a cache large enough to hold their
    whole text, by a wide margin.
    """

    @staticmethod
    def _stats(name, arch):
        from repro.programs.registry import build
        from repro.refsim.iss import CycleAccurateISS

        return CycleAccurateISS(build(name), arch).run().cache_stats

    @staticmethod
    def _code_bytes(name) -> int:
        from repro.programs.registry import build

        return len(build(name).text().data)

    @pytest.mark.parametrize("name", ("dct8x8", "viterbi"))
    def test_big_kernels_incur_capacity_misses(self, name):
        arch = default_source_arch()
        assert self._code_bytes(name) > arch.icache.size, \
            f"{name} no longer overflows the {arch.icache.size}-byte cache"
        default = self._stats(name, arch)
        # 64x the sets => whole text fits => only compulsory misses
        compulsory = self._stats(name, arch.with_icache(sets=2048))
        capacity = default.misses - compulsory.misses
        assert compulsory.misses > 0
        assert capacity >= 500, (
            f"{name}: only {capacity} capacity misses "
            f"({default.misses} total, {compulsory.misses} compulsory)")

    @pytest.mark.parametrize("name", ("gcd", "sieve", "fir"))
    def test_small_kernels_only_miss_compulsorily(self, name):
        # the property that makes the big kernels *distinct*: the
        # Section-4 kernels fit, so every miss is a cold fill
        arch = default_source_arch()
        assert self._code_bytes(name) < arch.icache.size
        default = self._stats(name, arch)
        compulsory = self._stats(name, arch.with_icache(sets=2048))
        assert default.misses == compulsory.misses

    def test_level3_translation_charges_the_misses(self):
        """The level-3 generated cache simulation must surface the
        capacity misses as emulated cycles: switching from level 2
        (no cache model) to level 3 adds at least the reference
        simulator's miss-penalty total, within the usual tolerance."""
        from repro.programs.registry import build
        from repro.translator.driver import translate
        from repro.vliw.platform import PrototypingPlatform

        arch = default_source_arch()
        obj = build("dct8x8")
        misses = self._stats("dct8x8", arch).misses
        penalty = arch.icache.miss_penalty
        runs = {}
        for level in (2, 3):
            program = translate(obj, level=level).program
            runs[level] = PrototypingPlatform(
                program, backend="compiled").run().emulated_cycles
        added = runs[3] - runs[2]
        assert added >= 0.9 * misses * penalty, (
            f"level 3 added only {added} emulated cycles; the reference "
            f"charges ~{misses * penalty}")
