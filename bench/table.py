"""The baseline table: every size of the ROADMAP baseline that finishes in
under a second, each timed as the median of a few repeats.

    python3 bench/run.py --table [--seed N]
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

import gen
from workloads import ROOT

REPEATS = 5


def median_ms(fn, repeats: int = REPEATS) -> str:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return f"{statistics.median(times) * 1e3:.2f} | {repeats}"


def rows(seed: int):
    from bsrig import (
        HeckeElement, RootOfUnity, bs, common_fixed_vertex, coset_profile,
        double_coset, exchange_partners, hecke_convolve, normalize, parse_word, word_nf,
    )

    G = bs(2, 3)
    rng = random.Random(seed)
    texts = [gen.word(rng, rng.randint(0, 6), 2, 3, rng.randint(1, 20)) for _ in range(2000)]
    ws = [parse_word(t) for t in texts]
    nfs = [normalize(w, G) for w in ws]
    yield "normalize", "2000 random words, <=6 b-letters, a-exponents below 2^20 in size", median_ms(lambda: [normalize(w, G) for w in ws])
    yield "coset_profile", "the same 2000 normal forms", median_ms(lambda: [coset_profile(g, G) for g in nfs])
    for k in (4, 8):
        g = word_nf("b" * k, G)
        yield "double_coset", f"b^{k}", median_ms(lambda: double_coset(g, G))
    for k in (2, 3, 4):
        x = HeckeElement.single(double_coset(word_nf("b" * k, G), G))
        y = HeckeElement.single(double_coset(word_nf("B" * k, G), G))
        yield "hecke_convolve", f"b^{k} * B^{k}", median_ms(lambda: hecke_convolve(x, y, G), 3 if k == 4 else REPEATS)
    w = RootOfUnity.of(1, 3)
    for k in (8, 12):
        g = word_nf("b" * k, G)
        yield "exchange_partners", f"1/3, b^{k}", median_ms(lambda: exchange_partners(w, g, G))
    gs = [word_nf("a^6", G), word_nf("b^3 a^2 B^3", G)]
    for radius in (3, 5):
        yield "common_fixed_vertex", f"a^6, b^3 a^2 B^3 (absent), radius {radius}", median_ms(lambda: common_fixed_vertex(gs, G, radius))
    env = dict(os.environ, PYTHONPATH="src")
    for argv in (["reduce", "b a^2 B"], ["profile", "b"], ["profile", "b^2000"]):
        cmd = [sys.executable, "-m", "bsrig.cli", "--group", "2,3", *argv]
        run = lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        yield "CLI end to end", " ".join(argv), median_ms(run)


def main(seed: int) -> None:
    print(f"| layer / command | input (BS(2,3), seed {seed}) | median ms | repeats |")
    print("|---|---|---|---|")
    for layer, what, timing in rows(seed):
        print(f"| `{layer}` | {what} | {timing} |", flush=True)
