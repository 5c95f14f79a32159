"""Process simulation: exact probabilities, determinism, closure, stream 2."""

import hashlib
import random
import struct
from collections import Counter
from fractions import Fraction

import pytest

from latticechains.enumeration import enumerate_polygons
from latticechains.geometry import (
    TriangleSpec,
    convex_hull_chain,
    polygon_stats,
    triangle_interior_points,
)
from latticechains import montecarlo
from latticechains.montecarlo import (
    BATCH,
    FrequencyTable,
    SimulationConfig,
    _count_masks,
    _hull_counts,
    compare,
    exact_prob,
    mask_decoder,
    simulate,
)


def chain(spec, *pts):
    """The vertices of the chain from (0,0) through pts to (i,j)."""
    return ((0, 0), *pts, (spec.i, spec.j))


def prob(spec, x, *pts):
    return exact_prob(polygon_stats(chain(spec, *pts), spec), x)


def test_config_validation():
    spec = TriangleSpec(2, 3)
    SimulationConfig(spec, Fraction(1, 2), 10, 0)
    with pytest.raises(ValueError):
        SimulationConfig(spec, Fraction(0), 10, 0)
    with pytest.raises(ValueError):
        SimulationConfig(spec, Fraction(1), 10, 0)
    with pytest.raises(ValueError):
        SimulationConfig(spec, Fraction(3, 2), 10, 0)
    with pytest.raises(ValueError):
        SimulationConfig(spec, Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        SimulationConfig(spec, Fraction(1, 2), 10, -1)
    with pytest.raises(ValueError):
        SimulationConfig(spec, Fraction(1, 2), 10, 2 ** 64)


def test_exact_prob_frozen_values():
    s23 = TriangleSpec(2, 3)
    assert prob(s23, Fraction(1, 2)) == Fraction(1, 2)
    assert prob(s23, Fraction(1, 2), (1, 1)) == Fraction(1, 2)

    s34 = TriangleSpec(3, 4)
    assert prob(s34, Fraction(1, 3), (2, 1)) == Fraction(1, 3)
    assert prob(s34, Fraction(1, 3)) == Fraction(8, 27)
    assert prob(s34, Fraction(1, 3), (1, 1)) == Fraction(4, 27)
    assert prob(s34, Fraction(1, 3), (2, 2)) == Fraction(6, 27)


def test_exact_prob_rejects_boundary_x():
    s = polygon_stats(chain(TriangleSpec(2, 3)), TriangleSpec(2, 3))
    with pytest.raises(ValueError):
        exact_prob(s, 0)
    with pytest.raises(ValueError):
        exact_prob(s, 1)


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
def test_probabilities_sum_to_one_exactly(x):
    for i in range(1, 9):
        for j in range(1, 9):
            spec = TriangleSpec(i, j)
            total = sum(exact_prob(s, x) for _, s in enumerate_polygons(spec))
            assert total == 1


def test_trivial_triangle_always_yields_hypotenuse():
    spec = TriangleSpec(1, 1)
    table = simulate(SimulationConfig(spec, Fraction(1, 2), 100, 7))
    assert table.counts == {chain(spec): 100}
    assert table.total == 100


def test_simulate_is_deterministic():
    cfg = SimulationConfig(TriangleSpec(3, 4), Fraction(1, 3), 3000, 42)
    a = simulate(cfg)
    b = simulate(cfg)
    assert a.counts == b.counts


def test_parallel_matches_serial():
    for i, j, x, seed in [(4, 5, Fraction(1, 2), 99), (5, 7, Fraction(1, 3), 7)]:
        cfg = SimulationConfig(TriangleSpec(i, j), x, 2000, seed)
        serial = simulate(cfg, jobs=1)
        parallel = simulate(cfg, jobs=3)
        assert serial.counts == parallel.counts


def test_simulate_refuses_fewer_than_one_job():
    cfg = SimulationConfig(TriangleSpec(2, 3), Fraction(1, 2), 10, 0)
    with pytest.raises(ValueError, match=r"^jobs must be >= 1, got 0$"):
        simulate(cfg, jobs=0)


def test_pool_uses_at_most_one_worker_per_core(monkeypatch):
    import concurrent.futures

    class InlineExecutor:
        """Records max_workers and the submits per pool, and runs each task
        at submit; starts no process."""
        max_workers = []
        submits = []

        def __init__(self, max_workers):
            self.max_workers.append(max_workers)
            self.submits.append(0)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submits[-1] += 1
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    # no affinity call on this platform: the host's count is the cap
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    cfg = SimulationConfig(TriangleSpec(4, 5), Fraction(1, 3), 640, 5)
    assert simulate(cfg, jobs=64).counts == simulate(cfg, jobs=1).counts
    assert InlineExecutor.max_workers == [2]
    # one chunk of trials per worker, not one per requested job
    assert InlineExecutor.submits == [2]
    # a process limited to one of the host's two CPUs builds no pool at all
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert simulate(cfg, jobs=64).counts == simulate(cfg, jobs=1).counts
    assert InlineExecutor.max_workers == [2]
    assert InlineExecutor.submits == [2]


@pytest.mark.parametrize("i", range(1, 7))
def test_each_mask_is_tallied_as_its_validated_hull(i):
    for j in range(1, 7):
        spec = TriangleSpec(i, j)
        interior = triangle_interior_points(spec)
        for mask in range(1 << len(interior)):
            chosen = [pt for bit, pt in enumerate(interior) if mask >> bit & 1]
            assert _hull_counts({mask: 3}, spec) == {convex_hull_chain(chosen, spec): 3}


def test_hull_counts_give_the_exact_law_over_every_mask():
    # each mask S once, weighted num^|S| * (den-num)^(I_T-|S|): the table
    # must be den^I_T * prob(P) on every family member, and hold nothing else
    specs = [spec for i in range(1, 12) for j in range(1, 12)
             if (spec := TriangleSpec(i, j)).interior_count <= 12]
    assert len(specs) == 74
    for x in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        num, den = x.numerator, x.denominator
        for spec in specs:
            n = spec.interior_count
            tally = {}
            for mask in range(1 << n):
                chosen = bin(mask).count("1")
                tally[mask] = num ** chosen * (den - num) ** (n - chosen)
            expected = {v: den ** n * exact_prob(s, x) for v, s in enumerate_polygons(spec)}
            assert _hull_counts(tally, spec) == expected, (spec, x)


def test_collinear_chosen_points_leave_the_hull():
    # (2,1) lies on the edge from (0,0) to (4,2), so it is no vertex
    spec = TriangleSpec(6, 4)
    interior = triangle_interior_points(spec)
    mask = 1 << interior.index((2, 1)) | 1 << interior.index((4, 2))
    assert _hull_counts({mask: 1}, spec) == {chain(spec, (4, 2)): 1}


def test_simulate_builds_one_polygon_per_distinct_hull(monkeypatch):
    cfg = SimulationConfig(TriangleSpec(5, 7), Fraction(1, 3), 2000, 7)
    checked = []
    check_chain = montecarlo.check_chain

    def counting(vertices, spec):
        checked.append(vertices)
        return check_chain(vertices, spec)

    monkeypatch.setattr(montecarlo, "check_chain", counting)
    table = simulate(cfg)
    masks = _count_masks(cfg.seed, 0, cfg.trials, 1, 3, cfg.spec.interior_count)
    # one check per distinct hull
    assert sorted(checked) == sorted(table.counts)
    assert len(checked) < len(masks)
    assert table.total == cfg.trials


def column_minima(mask, interior):
    """The lowest chosen point of each column, as a set."""
    lowest = {}
    for bit, (x, y) in enumerate(interior):
        if mask >> bit & 1:
            lowest[x] = min(y, lowest.get(x, y))
    return frozenset(lowest.items())


def test_simulate_builds_one_lower_hull_per_set_of_column_minima(monkeypatch):
    cfg = SimulationConfig(TriangleSpec(5, 7), Fraction(1, 3), 2000, 7)
    calls = []
    lower_hull = montecarlo.lower_hull

    def counting(points):
        calls.append(points)
        return lower_hull(points)

    monkeypatch.setattr(montecarlo, "lower_hull", counting)
    table = simulate(cfg)
    masks = _count_masks(cfg.seed, 0, cfg.trials, 1, 3, cfg.spec.interior_count)
    interior = triangle_interior_points(cfg.spec)
    minima = {column_minima(mask, interior) for mask in masks}
    assert len(calls) == len(minima) < len(masks)
    assert table.total == cfg.trials


@pytest.mark.parametrize("i, j", [(2, 11), (3, 10), (4, 9), (9, 4), (7, 12)])
def test_tall_column_masks_are_tallied_as_their_validated_hull(i, j):
    spec = TriangleSpec(i, j)
    interior = triangle_interior_points(spec)
    rng = random.Random(f"tall {i} {j}")
    for _ in range(300):
        mask = rng.getrandbits(len(interior)) & rng.getrandbits(len(interior))
        chosen = [pt for bit, pt in enumerate(interior) if mask >> bit & 1]
        assert _hull_counts({mask: 5}, spec) == {convex_hull_chain(chosen, spec): 5}


def test_masks_that_differ_above_their_column_minima_share_one_row():
    # column 1 of (2,11) holds (1,1)..(1,5); the lowest chosen point decides
    spec = TriangleSpec(2, 11)
    interior = triangle_interior_points(spec)
    bits = {pt: 1 << n for n, pt in enumerate(interior)}
    low = bits[(1, 2)]
    tally = {low: 1, low | bits[(1, 3)]: 2, low | bits[(1, 5)]: 4,
             low | bits[(1, 3)] | bits[(1, 4)] | bits[(1, 5)]: 8, bits[(1, 4)]: 16, 0: 32}
    assert _hull_counts(tally, spec) == {
        chain(spec, (1, 2)): 15,
        chain(spec, (1, 4)): 16,
        chain(spec): 32,
    }


def test_different_seeds_differ():
    # not a hard guarantee, but 3000 trials colliding exactly would be absurd
    spec = TriangleSpec(3, 4)
    a = simulate(SimulationConfig(spec, Fraction(1, 2), 3000, 1))
    b = simulate(SimulationConfig(spec, Fraction(1, 2), 3000, 2))
    assert a.counts != b.counts


def test_simulation_closure_and_total():
    spec = TriangleSpec(4, 5)
    cfg = SimulationConfig(spec, Fraction(1, 2), 500, 11)
    table = simulate(cfg)
    family = {p.vertices for p in enumerate_polygons(spec)}
    assert set(table.counts) <= family
    assert table.total == 500
    assert all(c >= 0 for c in table.counts.values())


def test_compare_trivial_triangle():
    cfg = SimulationConfig(TriangleSpec(1, 1), Fraction(1, 2), 50, 3)
    report = compare(simulate(cfg), cfg)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.empirical == 1.0
    assert row.exact == 1
    assert row.z == 0.0
    assert not row.flagged
    assert report.ok


def test_compare_rows_follow_enumeration_order_with_zero_counts():
    spec = TriangleSpec(3, 4)
    cfg = SimulationConfig(spec, Fraction(1, 3), 1, 5)
    report = compare(simulate(cfg), cfg)
    assert [r.vertices for r in report.rows] == [p.vertices for p in enumerate_polygons(spec)]
    assert sum(r.count for r in report.rows) == 1
    assert sum(1 for r in report.rows if r.count == 0) == 3
    assert report.exact_total == 1


def test_compare_z_scores_reasonable_at_moderate_scale():
    cfg = SimulationConfig(TriangleSpec(2, 3), Fraction(1, 2), 20000, 12345)
    report = compare(simulate(cfg), cfg)
    assert report.exact_total == 1
    for row in report.rows:
        assert abs(row.z) < 4.5
        assert row.empirical == row.count / cfg.trials


def test_compare_rejects_foreign_polygon():
    spec = TriangleSpec(3, 4)
    cfg = SimulationConfig(spec, Fraction(1, 2), 10, 0)
    stray = chain(TriangleSpec(2, 3))
    with pytest.raises(ValueError):
        compare(FrequencyTable({stray: 10}), cfg)


def test_compare_rejects_wrong_trial_total():
    spec = TriangleSpec(1, 1)
    cfg = SimulationConfig(spec, Fraction(1, 2), 10, 0)
    with pytest.raises(ValueError):
        compare(FrequencyTable({chain(spec): 9}), cfg)


# ---------------------------------------------------------------------------
# stream 2: one uniform draw per trial, decoded into base-den digit coins


def reference_masks(seed, stop, num, den, npoints, sha=hashlib.sha256, start=0):
    """The stream-2 contract read literally for trials start..stop-1:
    whole-draw rejection, then one base-den digit per point, least
    significant first."""
    modulus = den ** npoints
    nblocks = -(-(modulus.bit_length() + 64) // 256)
    limit = 2 ** (256 * nblocks) // modulus * modulus
    tallies = Counter()
    for trial in range(start, stop):
        block = 0
        while True:
            data = b"".join(sha(struct.pack(">QQQ", seed, trial, b)).digest()
                            for b in range(block, block + nblocks))
            block += nblocks
            r = int.from_bytes(data, "big")
            if r < limit:
                break
        r %= modulus
        mask = 0
        for point in range(npoints):
            r, digit = divmod(r, den)
            if digit < num:
                mask |= 1 << point
        tallies[mask] += 1
    return dict(tallies)


def digit_mask(r, num, den, npoints):
    """The mask of r read digit by digit, least significant first."""
    return sum(1 << p for p in range(npoints) if r // den ** p % den < num)


@pytest.mark.parametrize("length", [0, 24, 55, 56, 63, 64, 65, 200])
def test_sha256_is_hashlibs(length):
    # across SHA-256's padding edges: one block, the length field spilling
    # into a second, and several blocks
    message = bytes(range(251)) * 2
    assert montecarlo.sha256(message[:length]).digest() == \
        hashlib.sha256(message[:length]).digest()


@pytest.mark.parametrize("num,den,npoints", [
    (1, 2, 3), (1, 3, 4), (2, 3, 4), (2, 5, 3),
    (1, 3, 0), (37, 100, 0),  # no points: every mask is empty
    (1, 2, 12), (2, 5, 5),  # one chunk, exactly full: 2**12 = 4096, 5**5 = 3125
    (1, 2, 13),  # a full chunk plus one digit
    (2, 5, 6),  # two table chunks: 5**5 <= TABLE_SIZE < 5**6
    (2, 3, 9),  # two table chunks of 7 and 2 digits
    (37, 100, 2),  # 100**2 > TABLE_SIZE: one digit per chunk, no table
])
def test_decoder_is_exact_over_every_residue(num, den, npoints):
    masks = mask_decoder(num, den, npoints)(list(range(den ** npoints)))
    # each residue decodes digit by digit, whatever the table width
    for r, mask in enumerate(masks):
        assert mask == digit_mask(r, num, den, npoints)
    # so each mask S comes from num^|S| (den-num)^(n-|S|) residues
    expected = {}
    for mask in range(1 << npoints):
        chosen = bin(mask).count("1")
        expected[mask] = num ** chosen * (den - num) ** (npoints - chosen)
    assert Counter(masks) == expected


@pytest.mark.parametrize("num,den,npoints", [
    (1, 3, 20),  # three table chunks of 7, 7 and 6 digits
    (1, 2, 30),  # three table chunks of 12, 12 and 6 digits
    (37, 100, 4),  # four coins, no table
])
def test_decoder_is_exact_on_sampled_residues(num, den, npoints):
    # den**npoints is too many residues to list: sample them, with both ends
    modulus = den ** npoints
    rng = random.Random(f"decoder {num}/{den} {npoints}")
    residues = [0, modulus - 1, *(rng.randrange(modulus) for _ in range(2000))]
    assert mask_decoder(num, den, npoints)(residues) == \
        [digit_mask(r, num, den, npoints) for r in residues]


@pytest.mark.parametrize("seed,trials,num,den,npoints", [
    (3, 300, 1, 3, 5),
    (5, 200, 2, 5, 12),
    (8, 20, 1, 3, 130),
    (2, 50, 7, 2 ** 70, 3),  # den above 2^64
])
def test_count_masks_follows_the_contract(seed, trials, num, den, npoints):
    assert _count_masks(seed, 0, trials, num, den, npoints) == \
        reference_masks(seed, trials, num, den, npoints)


@pytest.mark.parametrize("num,den,npoints", [
    (1, 3, 12),
    (7, 2 ** 70, 3),  # no table
])
def test_count_masks_follows_the_contract_across_batches(num, den, npoints):
    # starts mid-batch and spans more than two batches
    start, stop = BATCH - 7, 2 * BATCH + 13
    assert _count_masks(6, start, stop, num, den, npoints) == \
        reference_masks(6, stop, num, den, npoints, start=start)


def test_split_trial_ranges_add_up_to_the_whole():
    # the --jobs split cuts the trial range anywhere, not only at batches
    k, n = BATCH + 100, 2 * BATCH + 13
    assert k % BATCH and n % BATCH
    assert _count_masks(9, 0, k, 1, 3, 12) + _count_masks(9, k, n, 1, 3, 12) == \
        _count_masks(9, 0, n, 1, 3, 12)


def test_count_masks_golden_multi_chunk():
    # 12 points at den 3: two table chunks of 7 and 5 digits
    assert _count_masks(5, 0, 6, 1, 3, 12) == {
        592: 1, 2818: 1, 360: 1, 521: 1, 768: 1, 1027: 1}


def test_count_masks_golden_multi_digest():
    # 3^130 has 207 bits; with the 64-bit margin each draw reads two digests
    assert _count_masks(11, 0, 3, 1, 3, 130) == {
        0x2e00829041a42300d1020624152849098: 1,
        0x15814a246348d43640460830024804011: 1,
        0x240b34104324f00389ec0094c04269c2: 1,
    }


class FixedDigest:
    def __init__(self, digest: bytes):
        self._digest = digest

    def digest(self) -> bytes:
        return self._digest


def rig_first_draws(monkeypatch, npoints, first_draw):
    """Make every trial's first draw the given value at 3**npoints; later
    blocks hash as usual. Returns the list of (trial, block) requests, the
    rigged sha256 and the blocks per draw."""
    modulus = 3 ** npoints
    nblocks = -(-(modulus.bit_length() + 64) // 256)
    span = 2 ** (256 * nblocks)
    limit = span // modulus * modulus
    value = {"all ones": span - 1, "limit - 1": limit - 1, "limit": limit}[first_draw]
    first = value.to_bytes(32 * nblocks, "big")
    real = hashlib.sha256
    requested = []

    def rigged(data):
        _, trial, block = struct.unpack(">QQQ", data)
        requested.append((trial, block))
        if block < nblocks:
            return FixedDigest(first[32 * block:32 * (block + 1)])
        return real(data)

    monkeypatch.setattr(montecarlo, "sha256", rigged)
    return requested, rigged, nblocks


@pytest.mark.parametrize("npoints,first_draw,rejected", [
    (4, "all ones", True),
    (4, "limit - 1", False),
    (4, "limit", True),
    (130, "all ones", True),  # two digests per draw
])
def test_draw_is_rejected_from_the_limit_on(monkeypatch, npoints, first_draw, rejected):
    requested, rigged, nblocks = rig_first_draws(monkeypatch, npoints, first_draw)
    tallies = _count_masks(4, 0, 20, 1, 3, npoints)
    blocks = range(2 * nblocks if rejected else nblocks)
    assert requested == [(t, b) for t in range(20) for b in blocks]
    assert tallies == reference_masks(4, 20, 1, 3, npoints, sha=rigged)


@pytest.mark.parametrize("npoints,rejected", [
    (4, True),
    (130, True),
    (0, False),  # 3**0 = 1 divides 2^256: no draw is rejected
])
def test_redraws_stay_in_trial_order_across_a_batch(monkeypatch, npoints, rejected):
    requested, rigged, nblocks = rig_first_draws(monkeypatch, npoints, "all ones")
    trials = range(BATCH - 10, BATCH + 10)
    tallies = _count_masks(4, trials.start, trials.stop, 1, 3, npoints)
    blocks = range(2 * nblocks if rejected else nblocks)
    assert requested == [(t, b) for t in trials for b in blocks]
    assert tallies == reference_masks(4, trials.stop, 1, 3, npoints, sha=rigged,
                                      start=trials.start)
