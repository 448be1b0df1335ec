"""End-to-end acceptance checks.

One test per criterion, in order. Each prints the measured values next to
the tolerance it was held to, so a verbose run reads as a checklist.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from signshape import (
    ShaperConfig,
    ShapingProfile,
    decode_block,
    dm_code,
    effective_probabilities,
    empirical_source_frequencies,
    encode_block_dm,
    encode_block_ideal,
    loss_budget,
    mi_curve_for_profile,
    mi_curve_optimized,
    mi_gap_db,
    optimize_profile,
    rank,
    rate_loss,
    rate_loss_to_db,
    switch_energy_loss,
    switch_excess_expectation,
    unrank,
)
from signshape.constellation import induced_pmf

GRID_32 = np.arange(6.0, 20.01, 0.5)
GRID_64 = np.arange(26.0, 34.01, 0.5)


@pytest.fixture(scope="module")
def p2_optimized_32():
    return mi_curve_optimized(5, 2, GRID_32)


@pytest.fixture(scope="module")
def p8_optimized_32():
    return mi_curve_optimized(5, 8, GRID_32)


@pytest.fixture(scope="module")
def fixed_0424_32():
    return mi_curve_for_profile(ShapingProfile(m=5, probs=(0.04, 0.24)), GRID_32)


def test_criterion_01_matcher_bijective_exhaustively():
    """Every (n, w) with n <= 16: unrank is a bijection onto the codebook."""
    checked = 0
    for n in range(1, 17):
        for w in range(0, n + 1):
            code = dm_code(n, w)
            for index in range(code.num_words):
                word = unrank(index, code)
                assert int(word.sum()) == w
                assert rank(word, code) == index
                checked += 1
    print(f"criterion 1 PASS: {checked} words round-tripped across all "
          f"(n, w) with n <= 16")
    assert checked == sum(2**n for n in range(1, 17))


def test_criterion_02_switch_loss_table():
    """Energy penalty of the overflow switch for (0.04, 0.24)."""
    targets = [0.04, 0.03, 0.02, 0.015, 0.01]
    lengths = [2**e for e in range(8, 13)]
    for m in (3, 5):
        prof = ShapingProfile(m=m, probs=(0.04, 0.24))
        measured = [switch_energy_loss(prof, n) for n in lengths]
        for n, got, want in zip(lengths, measured, targets):
            assert got == pytest.approx(want, abs=0.005), (m, n)
        print(f"criterion 2 PASS ({2**m}-ASK): "
              + ", ".join(f"n={n}: {v:.4f} dB" for n, v in zip(lengths, measured)))


def test_criterion_03_rate_loss_in_db(fixed_0424_32):
    """Finite-length matcher rate loss converted to dB at 3 bpcu."""
    cases = [(800, 0.04), (1000, 0.03), (2000, 0.02), (3400, 0.01)]
    measured = []
    for n, want in cases:
        loss = rate_loss(n, 0.14)
        db = rate_loss_to_db(loss, fixed_0424_32, 3.0)
        measured.append(db)
        assert db == pytest.approx(want, abs=0.01), n
    print("criterion 3 PASS: "
          + ", ".join(f"n={n}: {v:.4f} dB (target {w})"
                      for (n, w), v in zip(cases, measured)))


def test_criterion_04a_two_sources_near_full_resolution(
    p2_optimized_32, p8_optimized_32
):
    """Two optimized probabilities track the full eight-source optimum."""
    gaps = {}
    for rate in (1.5, 2.0, 2.5, 2.9):
        gap = mi_gap_db(p2_optimized_32, p8_optimized_32, rate)
        gaps[rate] = gap
        assert abs(gap) < 0.1, rate
    print("criterion 4a PASS: "
          + ", ".join(f"R={r}: {g:.4f} dB" for r, g in gaps.items()))


def test_criterion_04b_fixed_profile_penalty(fixed_0424_32):
    """Freezing (0.04, 0.24) instead of (0.08, 0.28) costs about 0.02 dB."""
    other = mi_curve_for_profile(ShapingProfile(m=5, probs=(0.08, 0.28)), GRID_32)
    gap = mi_gap_db(fixed_0424_32, other, 3.0)
    assert gap == pytest.approx(0.02, abs=0.01)
    print(f"criterion 4b PASS: extra loss {gap:.4f} dB at 3 bpcu")


def test_criterion_04c_optimum_near_3bpcu(p2_optimized_32):
    """The optimizer lands near (0.08, 0.28) where the curve crosses 3 bpcu."""
    s_star = p2_optimized_32.snr_at_rate(3.0)
    result = optimize_profile(5, 2, snr_db=s_star)
    p1, p2 = result.profile.probs
    assert p1 == pytest.approx(0.08, abs=0.02)
    assert p2 == pytest.approx(0.28, abs=0.02)
    print(f"criterion 4c PASS: optimum ({p1:.4f}, {p2:.4f}) at "
          f"{s_star:.3f} dB, target (0.08, 0.28) +- 0.02")


def test_criterion_05_64ask_two_source_gap():
    """64-ASK with the running two-source profile loses about 0.2 dB at
    5 bpcu against the fully optimized sixteen-source scheme."""
    pair = mi_curve_for_profile(ShapingProfile(m=6, probs=(0.04, 0.24)), GRID_64)
    full = mi_curve_optimized(6, 16, GRID_64)
    gap = mi_gap_db(pair, full, 5.0)
    assert gap == pytest.approx(0.2, abs=0.05)
    # for context: re-optimizing the two probabilities recovers part of it
    pair_opt = mi_curve_optimized(6, 2, GRID_64)
    gap_opt = mi_gap_db(pair_opt, full, 5.0)
    print(f"criterion 5 PASS: gap {gap:.4f} dB at 5 bpcu "
          f"(re-optimized two-source gap {gap_opt:.4f} dB)")


def test_criterion_06_loss_budget():
    """Budget at 17 dB, n = 2048, 32-ASK, (0.04, 0.24)."""
    report = loss_budget(5, 0.04, 0.24, 2048, 17.0)
    assert report.quantization_db == pytest.approx(0.1, abs=0.02)
    assert report.matcher_db == pytest.approx(0.03, abs=0.02)
    assert report.switch_db == pytest.approx(0.015, abs=0.02)
    assert report.total_db == pytest.approx(0.145, abs=0.02)
    print(f"criterion 6 PASS: quantization {report.quantization_db:.4f} + "
          f"matcher {report.matcher_db:.4f} + switch {report.switch_db:.4f} "
          f"= {report.total_db:.4f} dB")


def test_criterion_07_statistical_conformance():
    """Ideal sources give the induced pmf (chi-square at 0.01); block
    matchers serve bits at the effective, not nominal, densities."""
    prof = ShapingProfile(m=5, probs=(0.04, 0.24))
    n = 2048
    blocks_needed = math.ceil(1_000_000 / n)
    counts = np.zeros(32)
    for seed in range(blocks_needed):
        cfg = ShaperConfig(profile=prof, n=n, rng_seed=seed, mode="ideal-sources")
        block = encode_block_ideal(cfg)
        ranks = (np.asarray(block.symbols) + 31) // 2
        counts += np.bincount(ranks.astype(int), minlength=32)
    total = counts.sum()
    expected = induced_pmf(5, (0.04, 0.24)) * total
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(stats.chi2.sf(chi2, df=31))
    assert p_value > 0.01

    cfg = ShaperConfig(profile=prof, n=n, rng_seed=0, mode="block-dm")
    freqs, slot_counts = empirical_source_frequencies(cfg, num_blocks=1000, seed=1)
    p_eff = effective_probabilities(0.04, 0.24, n)
    for i in range(2):
        sd = math.sqrt(p_eff[i] * (1.0 - p_eff[i]) / slot_counts[i])
        assert abs(freqs[i] - p_eff[i]) <= 3.0 * sd, i
        # the nominal density lies outside the band, so the test separates
        # effective from nominal rather than accepting both
        assert abs(freqs[i] - prof.probs[i]) > 3.0 * sd, i
    print(f"criterion 7 PASS: chi-square p = {p_value:.3f} over {int(total)} "
          f"symbols; served densities ({freqs[0]:.5f}, {freqs[1]:.5f}) vs "
          f"effective ({p_eff[0]:.5f}, {p_eff[1]:.5f})")


def test_criterion_08_roundtrip_grid():
    """10^4 random blocks across small and large configurations decode
    back to their exact payloads."""
    combos = []
    for m in (3, 5):
        for P in (1, 2):
            for n in (2**8, 2**11):
                probs = (0.2,) if P == 1 else (0.04, 0.24)
                combos.append(ShaperConfig(
                    profile=ShapingProfile(m=m, probs=probs), n=n))
    per_combo = 10_000 // len(combos)
    rng = np.random.default_rng(404)
    total = 0
    for cfg in combos:
        for _ in range(per_combo):
            seeded = ShaperConfig(profile=cfg.profile, n=cfg.n,
                                  rng_seed=int(rng.integers(0, 2**63)))
            info = rng.integers(0, 2, size=seeded.info_length, dtype=np.uint8)
            block = encode_block_dm(seeded, info)
            back = decode_block(block, seeded)
            assert np.array_equal(back, info)
            total += 1
    print(f"criterion 8 PASS: {total} blocks round-tripped over "
          f"{len(combos)} configurations")


def test_criterion_09_excess_expectation_monte_carlo():
    """Closed-form expected overflow against simulation and hand values."""
    assert switch_excess_expectation(2) == 0.25
    assert switch_excess_expectation(4) == 0.375
    rng = np.random.default_rng(55)
    lines = []
    for n in (64, 1024):
        draws = rng.binomial(n, 0.5, size=1_000_000)
        mc = float(np.maximum(draws - n // 2, 0).mean())
        exact = switch_excess_expectation(n)
        assert mc == pytest.approx(exact, rel=0.01), n
        lines.append(f"n={n}: exact {exact:.4f} vs MC {mc:.4f}")
    print("criterion 9 PASS: eps(2) = 0.25, eps(4) = 0.375; " + "; ".join(lines))


def test_criterion_10_readme_scope_note():
    """Coded transmission experiments are documented as out of scope, with
    the statistical and round-trip checks named as the substitute."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "out of scope" in text
    assert "error-correct" in text or "error correct" in text or "fec" in text
    assert "round-trip" in text
    assert "chi-square" in text or "statistical" in text
    print("criterion 10 PASS: README documents the scope substitution")
