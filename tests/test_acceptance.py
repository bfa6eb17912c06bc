"""Acceptance gate: one test per criterion, each at its stated tolerance
and wall-clock budget, printing one PASS line per criterion (visible with
pytest -s; pytest -v shows the same pass/fail status per test)."""

import random
import time
from fractions import Fraction

from datex.dual import solve
from datex.gf import Matrix
from datex.greedy import edmonds_allocate, violated_cuts
from datex.instance import InfeasibleInstanceError
from datex.netcode import (design_transmissions, rationalize,
                           simulate_exchange, verify_decodability)
from datex.oracle import build_lp, solve_exact
from helpers import (example1_instance, example2_instance, example3_instance,
                     objective, random_linear_instance, with_matrices)

MILLI = Fraction(1, 1000)


def _report(num: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_single_receiver_exactness():
    t0 = time.perf_counter()
    inst = example1_instance()
    assert solve_exact(build_lp(inst)).value == Fraction(2)
    rates = edmonds_allocate(inst, 0, tie_break=(3, 4, 5, 1, 2))
    assert rates == (0, 0, 0, 1, 0, 1)
    _report(1, "oracle value 2, preferred-helper vertex (0,0,0,1,0,1)",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_three_receiver_convergence():
    t0 = time.perf_counter()
    inst = example2_instance(3)
    opt = solve_exact(build_lp(inst)).value
    assert opt == Fraction(9, 4)
    sol = solve(inst)
    assert sol.converged and sol.iterations <= 50_000
    assert abs(sol.primal_objective - Fraction(9, 4)) <= MILLI
    assert sol.gap <= MILLI

    binary = example2_instance(2)
    opt2 = solve_exact(build_lp(binary)).value  # recorded, not assumed
    sol2 = solve(binary)
    assert sol2.converged
    assert abs(sol2.primal_objective - opt2) <= MILLI
    assert sol2.gap <= MILLI
    _report(2, f"9/4 in {sol.iterations} iterations; binary-field optimum "
               f"{opt2} matched in {sol2.iterations}",
            time.perf_counter() - t0, 30.0)


def test_criterion_3_two_user_scheme():
    t0 = time.perf_counter()
    inst = example3_instance()
    opt = solve_exact(build_lp(inst))
    assert opt.value == Fraction(2)
    L, chunks = rationalize(opt.rates, instance=inst)
    assert L == 1
    scheme = design_transmissions(inst, chunks, L, seed=0)
    assert scheme.total_symbols == 2
    assert verify_decodability(scheme).ok
    failures = sum(not simulate_exchange(scheme, seed=s).ok
                   for s in range(100))
    assert failures == 0
    _report(3, "verified 2-symbol scheme at L=1, simulation 100/100",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_single_user_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(40_400)
    for _ in range(200):
        inst = random_linear_instance(rng, multi_user=False)
        (target,) = inst.user_list
        greedy_obj = objective(inst, edmonds_allocate(inst, target))
        assert greedy_obj == solve_exact(build_lp(inst)).value
    _report(4, "greedy objective == exact LP on 200 random instances",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_multi_user_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(50_500)
    worst_iters = 0
    for _ in range(100):
        inst = random_linear_instance(rng, multi_user=True)
        opt = solve_exact(build_lp(inst)).value
        sol = solve(inst)
        assert sol.converged, "gap tolerance not reached in 50000 iterations"
        assert abs(sol.primal_objective - opt) <= MILLI
        assert sol.gap <= MILLI
        for l in inst.user_list:  # exhaustive cut verification of Z
            assert violated_cuts(sol.rates, inst, l) == []
        worst_iters = max(worst_iters, sol.iterations)
    _report(5, f"100 random multi-user instances converged "
               f"(worst {worst_iters} iterations)",
            time.perf_counter() - t0, 300.0)


def _pairwise_masks(m):
    for s in range(1 << m):
        for i in range(m):
            if (s >> i) & 1:
                continue
            for j in range(i + 1, m):
                if (s >> j) & 1:
                    continue
                yield s, i, j


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(40_400)  # the criterion-4 instance stream
    instances = [random_linear_instance(rng, multi_user=False)
                 for _ in range(200)]

    # joint entropy submodular, cut requirement supermodular -- exhaustively
    for inst in instances:
        model = inst.model
        js = model.joint_entropy_scaled
        full = model.full_mask
        total = js(full)
        f = lambda s: total - js(full & ~s)
        for s, i, j in _pairwise_masks(inst.m):
            si, sj, sij = s | 1 << i, s | 1 << j, s | 1 << i | 1 << j
            assert js(si) + js(sj) >= js(s) + js(sij)
            assert f(si) + f(sj) <= f(s) + f(sij)

    # tie-break order never changes the greedy objective
    for inst in instances:
        (target,) = inst.user_list
        base = objective(inst, edmonds_allocate(inst, target))
        for _ in range(20):
            perm = list(range(inst.m))
            rng.shuffle(perm)
            assert objective(inst, edmonds_allocate(inst, target,
                                                    tie_break=perm)) == base

    # decodability report == simulation outcome on 50 schemes,
    # half verified as designed and half deliberately sabotaged
    built = 0
    while built < 50:
        inst = random_linear_instance(rng, multi_user=rng.random() < 0.5)
        model = inst.model
        if model.joint_entropy(model.full_mask) != model.N:
            continue  # a full exchange needs collectively-complete terminals
        opt = solve_exact(build_lp(inst))
        L, chunks = rationalize(opt.rates, instance=inst)
        if L > 8:
            continue  # keep rank checks desk-scale
        scheme = design_transmissions(inst, chunks, L,
                                      seed=rng.randrange(10 ** 6))
        if built % 2 and scheme.matrices:
            victim = rng.choice(sorted(scheme.matrices))
            old = scheme.matrices[victim]
            zero = Matrix.from_rows(scheme.coding_field,
                                    [[0] * old.ncols] * old.nrows,
                                    ncols=old.ncols)
            scheme = with_matrices(scheme,
                                   {**scheme.matrices, victim: zero})
        report = verify_decodability(scheme)
        for seed in (0, 1):
            assert simulate_exchange(scheme, seed=seed).successes \
                == {l: d == 0 for l, d in report.deficits.items()}
        built += 1
    _report(6, "entropy/cut curvature, tie-break invariance, and "
               "decode==simulate on 50 schemes",
            time.perf_counter() - t0, 300.0)


def test_criterion_7_helpers_only_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(70_700)
    done = 0
    while done < 50:
        inst = random_linear_instance(rng, multi_user=False,
                                      helpers_only=True)
        (target,) = inst.user_list
        assert target not in inst.transmitters
        try:
            rates = edmonds_allocate(inst, target)
        except InfeasibleInstanceError:
            continue  # the user holds something no helper can supply
        assert objective(inst, rates) == solve_exact(build_lp(inst)).value
        done += 1
    _report(7, "greedy == restricted exact LP on 50 helpers-only instances",
            time.perf_counter() - t0, 60.0)
