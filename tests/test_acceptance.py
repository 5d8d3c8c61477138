"""Acceptance battery: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy import stats as sps

from chanent import bitspace as bs
from chanent import boolfn, channels
from chanent import entropy_analysis as ea
from chanent import inequalities as iq
from chanent import listdecode as ld
from chanent.cli import main as cli_main

from conftest import (
    bayes_cond_entropy_bsc,
    erasure_cond_entropy_bec,
    full_corpus,
    naive_project,
    spectral_noise_operator,
)

EPS_GRID = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
QS = (2, 3, 4)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    return full_corpus()


def test_criterion_1_inequality_battery(corpus):
    worst = math.inf
    for code in corpus:
        stats = iq.subset_stats(boolfn.from_code(code), QS)
        for eps in EPS_GRID:
            noisy = iq.noisy_function(stats.f, eps)
            worst = min(worst, iq.check_cor_rv_entropy(code, noisy).slack)
            worst = min(worst, iq.check_sam_entropy(stats, noisy).slack)
            for q in QS:
                worst = min(worst, iq.check_cor_rv(code, noisy, q).slack)
                worst = min(worst, iq.check_sam_norm(stats, noisy, q).slack)
    _report(1, "inequality battery slack >= -1e-9", worst >= -1e-9,
            f"min slack {worst:.3e}")


def test_criterion_2_theorem1_battery(corpus):
    worst = math.inf
    checked = 0
    for code in corpus:
        f = boolfn.from_code(code)
        for eps in EPS_GRID:
            noisy = iq.noisy_function(f, eps)
            for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
                if 4 * eps * (1 - eps) < eta:
                    continue
                worst = min(worst, iq.check_bsc_bec(code, noisy, eta).slack)
                checked += 1
    equality_ok = True
    for n in (2, 3, 4):
        full = bs.full_space_code(n)
        rep = iq.check_bsc_bec(full, iq.noisy_function(boolfn.from_code(full), 0.3), 0.5)
        equality_ok &= abs(rep.slack) <= 1e-9
    _report(2, "BSC-BEC comparison slack >= -1e-9, equality at full space",
            worst >= -1e-9 and equality_ok and checked > 0,
            f"min slack {worst:.3e} over {checked} configs")


def test_criterion_3_operator_identities(corpus):
    rng = np.random.default_rng(2024)
    ok = True
    # noise operator vs the spectral oracle on 100 random functions
    for _ in range(100):
        n = int(rng.integers(4, 13))
        f = rng.random(1 << n) * 2
        eps = float(rng.uniform(0, 0.5))
        diff = np.max(np.abs(channels.noise_operator(f, eps)
                             - spectral_noise_operator(f, eps)))
        ok &= diff < 1e-10
    # noise operator maps f_X to the X+Z distribution (exhaustive, n <= 10)
    for code in [c for c in corpus if c.n <= 10]:
        n, eps = code.n, 0.2
        probs = np.zeros(1 << n)
        weights = [eps**w * (1 - eps) ** (n - w)
                   for w in range(n + 1)]
        for x in code.codewords:
            for z in range(1 << n):
                probs[x ^ z] += weights[bin(z).count("1")] / code.size
        f_noisy = channels.noise_operator(boolfn.from_code(code), eps)
        ok &= np.max(np.abs(f_noisy - probs * (1 << n))) < 1e-10
        # conditioning maps f_X to the marginal distribution, all subsets
        f = boolfn.from_code(code)
        for mask in range(1 << n):
            cond = channels.conditional_expectation(f, mask)
            k = bin(mask).count("1")
            marg = np.zeros(1 << k)
            for x in code.codewords:
                marg[naive_project(x, mask, n)] += 1 / code.size
            ok &= np.max(np.abs(cond - marg * (1 << k))) < 1e-10
    # semigroup composition
    for _ in range(20):
        f = rng.random(64) * 2
        e1, e2 = rng.uniform(0, 0.5, size=2)
        a = channels.noise_operator(channels.noise_operator(f, e1), e2)
        b = channels.noise_operator(f, e1 + e2 - 2 * e1 * e2)
        ok &= np.max(np.abs(a - b)) < 1e-10
    _report(3, "operator identities (fast path, X+Z law, marginals, semigroup)", ok)


def test_criterion_4_conditional_entropy_oracles(corpus):
    worst = 0.0
    for code in [c for c in corpus if c.n <= 10]:
        for eps in (0.1, 0.3):
            d = abs(ea.cond_entropy_bsc(code, eps) - bayes_cond_entropy_bsc(code, eps))
            worst = max(worst, d)
        for eta in (0.25, 0.5, 0.75):
            d = abs(ea.cond_entropy_bec(code, eta) - erasure_cond_entropy_bec(code, eta))
            worst = max(worst, d)
    _report(4, "conditional entropies match Bayes/erasure oracles within 1e-9",
            worst <= 1e-9, f"max deviation {worst:.3e}")


def test_criterion_5_monte_carlo_consistency(corpus):
    ok = True
    worst_sigmas = 0.0
    for code in [c for c in corpus if c.n <= 12]:
        for seed in (1, 2, 3):
            exact = ea.subset_entropy_expectation(code, 0.6, 2)
            est, se = ea.subset_entropy_expectation_mc(code, 0.6, 2, 10**4, seed)
            ok &= abs(est - exact) <= 4 * se + 1e-9
            if se > 0:
                worst_sigmas = max(worst_sigmas, abs(est - exact) / se)

            exact = ea.cond_entropy_bec(code, 0.4)
            est, se = ea.cond_entropy_bec_mc(code, 0.4, 10**4, seed)
            ok &= abs(est - exact) <= 4 * se + 1e-9
            if se > 0:
                worst_sigmas = max(worst_sigmas, abs(est - exact) / se)

            cfg = ld.DecoderConfig(n=code.n, eps=0.1, delta=0.1)
            exact = ld.likely_probability(code, cfg)
            est, se = ld.likely_probability_mc(code, cfg, 10**4, seed)
            ok &= abs(est - exact) <= 4 * se + 1e-9
            if se > 0:
                worst_sigmas = max(worst_sigmas, abs(est - exact) / se)
    _report(5, "MC estimates within 4 standard errors of exact values", ok,
            f"worst {worst_sigmas:.2f} sigma")


def test_criterion_6_decoder_soundness(corpus):
    trials = 10**5
    ok = True
    for code in corpus:
        for eps in (0.05, 0.1, 0.2):
            cfg = ld.DecoderConfig(n=code.n, eps=eps, delta=0.0)
            # simulate() raises if any failure is not heavy noise or truncation
            out = ld.simulate(code, cfg, trials=trials, seed=606)
            ok &= out.failures <= out.heavy_noise + out.truncations
    # single(n): error rate is exactly the binomial weight tail
    tail_ok = True
    for n, eps in ((5, 0.2), (8, 0.2), (10, 0.3)):
        c = bs.single_code(n)
        cfg = ld.DecoderConfig(n=n, eps=eps, list_cap=1)
        out = ld.simulate(c, cfg, trials=trials, seed=607)
        radius = eps * n + n**0.75
        p = float(sps.binom.sf(math.ceil(radius) - 1, n, eps))
        sigma = math.sqrt(p * (1 - p) / trials)
        tail_ok &= abs(out.error_rate - p) <= 4 * sigma + 1e-12
    _report(6, "every failure is heavy noise or truncation; single-code "
               "error rate matches binomial tail", ok and tail_ok)


def test_criterion_7_heavy_noise_trend():
    eps, trials = 0.1, 10**4
    exact_tails = []
    mc_ok = True
    for n in (9, 25, 49, 81):
        radius = eps * n + n**0.75
        p = float(sps.binom.sf(math.ceil(radius) - 1, n, eps))
        exact_tails.append(p)
        c = bs.repetition_code(n) if n <= 24 else None
        if c is None:
            # repetition beyond the dense cap: sample the noise weight directly
            rng = np.random.default_rng(700 + n)
            heavy = int(np.count_nonzero(
                (rng.random((trials, n)) < eps).sum(axis=1) >= radius
            ))
        else:
            cfg = ld.DecoderConfig(n=n, eps=eps, delta=0.0)
            heavy = ld.simulate(c, cfg, trials=trials, seed=700 + n).heavy_noise
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        mc_ok &= abs(heavy / trials - p) <= 4 * sigma + 1e-6
    strictly_decreasing = all(b < a for a, b in zip(exact_tails, exact_tails[1:]))
    _report(7, "heavy-noise probability strictly decreasing along repetition sizes",
            strictly_decreasing and mc_ok,
            "tails " + ", ".join(f"{p:.2e}" for p in exact_tails))


def test_criterion_8_formula_cross_checks():
    mp.dps = 40
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(50):
        rate = float(rng.uniform(0.05, 1.0))
        eps = float(rng.uniform(0.02, 0.48))
        delta = float(rng.uniform(0.0, 0.2))
        n = int(rng.integers(8, 64))

        e = mp.mpf(eps)
        h_hp = -e * mp.log(e, 2) - (1 - e) * mp.log(1 - e, 2)

        # list-size formula
        exp_hp = (mp.mpf(rate) - (1 - h_hp) + mp.mpf(delta)) * n
        k = ld.theoretical_list_size(rate, eps, delta, n)
        if exp_hp <= 0:
            ok &= k == 1
        else:
            val_hp = mp.power(2, exp_hp)
            frac = val_hp - mp.floor(val_hp)
            if frac > 1e-9 and (1 - frac) > 1e-9 and val_hp < 1e12:
                ok &= k == int(mp.ceil(val_hp))

        # lower-bound exponent to 12 significant digits
        lb_hp = (mp.mpf(rate) - (1 - h_hp)) * n - h_hp * mp.power(n, mp.mpf(3) / 4) - 3
        lb, _ = ld.rs22_lower_bound(rate, eps, n)
        scale = max(1.0, abs(float(lb_hp)))
        ok &= abs(lb - float(lb_hp)) <= 1e-12 * scale * 10

    mono_ok = True
    for eps in (0.1, 0.3, 0.45):
        vals = [ld.rs22_lower_bound(r, eps, 64)[0] for r in np.linspace(0.05, 1, 20)]
        mono_ok &= all(b > a for a, b in zip(vals, vals[1:]))
    _report(8, "list-size formulas match high-precision evaluation; "
               "lower bound monotone in rate", ok and mono_ok)


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["decode-sim", "--code", "hamming74", "--code", "repetition:5",
         "--eps", "0.1,0.2", "--trials", "2000", "--seed", "99", "--format", "csv"],
        ["entropy", "--code", "repetition:3", "--eps", "0.1", "--eta", "0.5",
         "--q", "1,2", "--format", "json"],
        ["verify", "--code", "repetition:3", "--eps", "0.1,0.3", "--eta", "0.5",
         "--q", "2", "--format", "csv"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        cli_main(cmd + ["--out", str(a)])
        cli_main(cmd + ["--out", str(b)])
        ok &= a.read_bytes() == b.read_bytes()
    _report(9, "CLI reruns with the same seed are byte-identical", ok)
