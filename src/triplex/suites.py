"""Verification suites: each runs a family of identity checks over
exhaustive basis ranges plus seeded random samples and returns a
schema-stable report."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from . import hopf
from .envelope import Element, EnvelopingAlgebra
from .exactlin import Echelon, echelonize
from .freealg import MAX_MONOMIALS, DegreeBudgetExceeded, check_table_size
from .lts import (InvalidStructure, _lambda, _tau, _tau_rule, check_axioms,
                  generated_ideal, integer_operators, lie_closure, op_compose,
                  op_transpose, simplicity_certificate, standard_embedding,
                  trace_identity_check)

# the least cap at which a suite checks anything: below it the jordan
# window, the lemma and expansion ranges and the s2 identities are empty,
# and mainthm's seeded samples (degree 2) leave the closures no safe
# window to reach T or 1; "all" needs the largest
MIN_CAP = {"jordan": 2, "lemma": 2, "expansion": 2, "s2": 3, "mainthm": 4}

SUITE_NAMES = ("axioms", "embedding", "endo", "simple", "pbw", "jordan",
               "lemma", "expansion", "s2", "hopf", "mainthm", "all")

# the suites that check the triple system alone and never build U_N(T)
LTS_SUITES = ("axioms", "embedding", "endo", "simple")


@dataclass
class SuiteReport:
    suite: str
    records: list = field(default_factory=list)
    timing: float = 0.0

    def add(self, identifier, params, verdict, witness=None):
        self.records.append({
            "id": identifier,
            "params": params,
            "verdict": "pass" if verdict else "fail",
            "witness": witness,
        })

    @property
    def ok(self):
        return all(r["verdict"] == "pass" for r in self.records)

    def finish(self):
        self.records.sort(key=lambda r: (r["id"], str(r["params"])))
        return self

    def to_dict(self, machine=False):
        out = {
            "suite": self.suite,
            "status": "pass" if self.ok else "fail",
            "checks": len(self.records),
            "records": self.records,
        }
        if not machine:
            out["timing_seconds"] = round(self.timing, 3)
        return out


def default_cap(system):
    return 6 if system.dim <= 2 else 4


def _seeded_elements(alg, seed, count, augmentation):
    """Deterministic random elements with coefficients in {-3,...,3}.

    Supported on monomials of degree 1 and 2; augmentation elements have
    no constant term, the others get a nonzero one.
    """
    rng = random.Random(seed)
    # the monomials of degree 1 and 2 are the indices after the unit
    support = range(1, alg.count_upto(2))
    out = []
    while len(out) < count:
        coeffs = {k: rng.randint(-3, 3) for k in support}
        if not augmentation:
            coeffs[0] = rng.choice([1, 2, 3])
        x = Element(alg, coeffs)
        if not x.is_zero():
            out.append(x)
    return out


def suite_axioms(system, alg_cache, N, seed):
    rep = SuiteReport("axioms")
    ax = check_axioms(system)
    rep.add("axiom1_alternating", {}, ax.alternating.ok, ax.alternating.counterexample)
    rep.add("axiom2_cyclic", {}, ax.cyclic.ok, ax.cyclic.counterexample)
    rep.add("axiom3_derivation", {}, ax.derivation.ok, ax.derivation.counterexample)
    return rep


def suite_embedding(system, alg_cache, N, seed):
    rep = SuiteReport("embedding")
    d = system.dim
    try:
        emb = standard_embedding(system)
    except InvalidStructure as exc:
        rep.add("embedding_build", {}, False, str(exc))
        return rep
    rep.add("embedding_build", {"dim": emb.dim, "inn_dim": emb.inn_dim}, True)
    tr = trace_identity_check(system, emb)
    rep.add("trace_identity", {}, tr.ok, tr.failures or None)
    # adjointness of R_{a,b} and R_{b,a} under the restricted Killing form,
    # on the pairs where one of them is nonzero.  This and the tau rules run
    # on integer multiples of the constants, K and the samples: each is
    # homogeneous in all of them
    r, kt = integer_operators(system), emb.integer_killing_t[1]
    adj_ok = all(op_compose(op_transpose(r.get((i, j), {})), kt)
                 == op_compose(kt, r.get((j, i), {}))
                 for i, j in set(r) | {(j, i) for i, j in r})
    rep.add("killing_adjointness", {}, adj_ok)
    # rank-one tau maps and the commutator rule for K-skew operators
    rng = random.Random(seed)

    def sample():
        return {i: c for i in range(d) if (c := rng.randint(-3, 3))}

    tau_ok = comm_ok = True
    for _ in range(10):
        x, y = sample(), sample()
        if echelonize(_tau(kt, x, y).values(), d).dim > 1:
            tau_ok = False
        dmat = _lambda(kt, sample(), sample())
        if not _tau_rule(kt, dmat, x, y):
            comm_ok = False
    rep.add("tau_rank_le_one", {"samples": 10, "seed": seed}, tau_ok)
    rep.add("tau_commutator_rule", {"samples": 10, "seed": seed}, comm_ok)
    return rep


def suite_endo(system, alg_cache, N, seed):
    rep = SuiteReport("endo")
    space, _ = lie_closure(integer_operators(system).values(), system.dim)
    rep.add("lie_closure_full",
            {"closure_dim": space.dim, "expected": system.dim ** 2},
            space.dim == system.dim ** 2)
    return rep


def suite_simple(system, alg_cache, N, seed):
    rep = SuiteReport("simple")
    cert = simplicity_certificate(system)
    rep.add("simplicity_certificate",
            {"verdict": cert.verdict, "envelope_dim": cert.envelope_dim},
            cert.verdict != "inconclusive")
    return rep


def suite_pbw(system, alg_cache, N, seed):
    rep = SuiteReport("pbw")
    alg = alg_cache(N)
    for n, dim in enumerate(alg.degree_dims):
        rep.add(f"pbw_level_{n}", {"dim": dim}, True)
    rep.add("pbw_certificate", {"cap": N, "relation_span_dim": alg.relspan_dim}, True)
    return rep


def suite_jordan(system, alg_cache, N, seed):
    rep = SuiteReport("jordan")
    alg = alg_cache(N)
    d = alg.d
    ok = True
    count = 0
    for a in range(d):
        ga = alg.generator(a)
        for v in alg.monomials_upto(N - 2):
            count += 1
            if not alg.check_jordan(ga, alg.monomial(v)):
                ok = False
                rep.add("jordan_operator_identity", {"a": a, "x": list(v)}, False)
    rep.add("jordan_exhaustive", {"cases": count}, ok)
    return rep


def _exhaustive_triples(suite, alg_cache, N, check, failure):
    """Run the identity check named ``check`` on every basis triple (c, a, b)
    and 0 <= n <= N - 2: a ``failure`` record for each case that fails, then
    the verdict over all of them."""
    rep = SuiteReport(suite)
    alg = alg_cache(N)
    check = getattr(alg, check)
    for c, a, b in iproduct(range(alg.d), repeat=3):
        for n in range(N - 1):
            if not check(c, a, b, n):
                rep.add(failure, {"c": c, "a": a, "b": b, "n": n}, False)
    rep.add(f"{suite}_exhaustive", {"n_max": N - 2, "triples": alg.d ** 3}, rep.ok)
    return rep


def suite_lemma(system, alg_cache, N, seed):
    return _exhaustive_triples("lemma", alg_cache, N, "check_lemma_derivation",
                               "lemma_residue")


def suite_expansion(system, alg_cache, N, seed):
    return _exhaustive_triples("expansion", alg_cache, N, "check_assoc_expansion",
                               "associator_expansion")


def s2_identity_suite(alg, n_max):
    """The closed-form S2 identities on ``alg``, exactly, for n <= n_max.

    Requires the base system to be S2 in the (e, f) basis with
    [e,f,e] = 2e and [e,f,f] = -2f.
    """
    if alg.d != 2:
        raise ValueError("this suite needs the two-dimensional system S2")
    consts = alg.system.constants
    if (consts.get((0, 1, 0)) != {0: Fraction(2)}
            or consts.get((0, 1, 1)) != {1: Fraction(-2)}):
        raise ValueError("base system is not S2 in the expected basis")
    if n_max + 3 > alg.cap:
        raise DegreeBudgetExceeded("S2 suite exceeds the degree budget")
    e, f = alg.generator(0), alg.generator(1)
    results = []
    for n in range(n_max + 1):
        en = alg.power(0, n)
        prop_lhs = alg.associator(en, f, f) * e
        prop_rhs = Fraction(n) * (en * f)
        if n >= 1:
            prop_rhs = prop_rhs - Fraction(n * (n - 1)) * alg.power(0, n - 1)
        eigen_lhs = Fraction(-2) * alg.associator(en, f, e)
        eigen_rhs = Fraction(2 * n) * en
        results.append((n, prop_lhs == prop_rhs, eigen_lhs == eigen_rhs))
    return results


def suite_s2(system, alg_cache, N, seed):
    rep = SuiteReport("s2")
    alg = alg_cache(N)
    try:
        results = s2_identity_suite(alg, N - 3)
    except ValueError as exc:
        rep.add("s2_suite", {}, False, str(exc))
        return rep
    for n, prop_ok, eigen_ok in results:
        rep.add("s2_proposition", {"n": n}, prop_ok)
        rep.add("s2_eigenvalue", {"n": n}, eigen_ok)
    return rep


def suite_hopf(system, alg_cache, N, seed):
    rep = SuiteReport("hopf")
    alg = alg_cache(N)
    deg = min(3, N)
    co = hopf.check_coalgebra(alg, deg)
    rep.add("coalgebra_laws", {"degree": deg}, co.ok, co.failures or None)
    # S is an involutive automorphism fixing 1 with eps o S = eps
    s_ok = True
    for v in alg.exponents:
        x = alg.monomial(v)
        if hopf.s_map(hopf.s_map(x)) != x or hopf.s_map(x).counit() != x.counit():
            s_ok = False
    rng = random.Random(seed)
    for _ in range(20):
        vx = rng.choice(alg.exponents)
        vy = rng.choice(alg.exponents)
        if sum(vx) + sum(vy) > N:
            continue
        x, y = alg.monomial(vx), alg.monomial(vy)
        if hopf.s_map(x * y) != hopf.s_map(x) * hopf.s_map(y):
            s_ok = False
    rep.add("s_map_automorphism", {"seed": seed}, s_ok)
    div_ok = True
    div_count = 0
    upto = alg.monomials_upto
    # each loop walks exactly the cases within the cap, in basis order
    for vx in upto(N // 2):
        vys = upto(N - 2 * sum(vx))
        results = hopf.check_divisions(alg, alg.monomial(vx),
                                       [alg.monomial(vy) for vy in vys])
        div_count += len(results)
        for vy, failures in zip(vys, results):
            if failures:
                div_ok = False
                rep.add("division_identities", {"x": list(vx), "y": list(vy)},
                        False, failures)
    rep.add("division_exhaustive", {"cases": div_count}, div_ok)
    # every (x, y, z) with degrees summing to at most N
    monomials = [alg.monomial(v) for v in upto(N)]
    cases, failures = hopf.check_weak_assoc(alg, monomials, monomials, monomials)
    rep.add("weak_associativity_exhaustive", {"cases": cases}, not failures)
    k = min(4, N)
    prim = hopf.primitives(alg, k)
    # T is spanned by the generators, normal-form indices 1..d
    t_span = Echelon(range(1, alg.d + 1)).subspace(alg.nf_size)
    rep.add("primitives_equal_t", {"degree": k, "dim": prim.dim}, prim == t_span)
    return rep


def suite_mainthm(system, alg_cache, N, seed):
    rep = SuiteReport("mainthm")
    alg = alg_cache(N)
    aug = alg.augmentation_ideal()
    simple = simplicity_certificate(system).verdict == "simple"

    def proper_closure_ok(ic, ideal_dim=0):
        # a full envelope makes "simple" central simple: the theorem then
        # leaves the augmentation ideal as the only proper right ideal
        if simple:
            return ic.subspace == aug
        # no pivot on the unit column 0: every vector has counit 0; and the
        # closure meets T at least in the ideal its generator generates
        return (0 not in ic.subspace.pivots and ic.meets_t_dim >= ideal_dim
                and (ic.meets_t_dim > 0 or ic.stabilization_degree is not None))

    ops = integer_operators(system).values()
    for idx, g in enumerate([alg.generator(i) for i in range(alg.d)]):
        ic = alg.right_ideal_closure([g])
        ideal_dim = 0 if simple else generated_ideal(Echelon(), [{idx: 1}], ops, alg.d).dim
        rep.add("closure_of_generator", {"generator": idx,
                                         "per_degree": ic.per_degree_dims,
                                         "meets_t": ic.meets_t_dim,
                                         "stabilization": ic.stabilization_degree},
                proper_closure_ok(ic, ideal_dim))
    aug_samples = _seeded_elements(alg, seed, 20, augmentation=True)
    for idx, x in enumerate(aug_samples):
        ic = alg.right_ideal_closure([x])
        rep.add("closure_of_augmentation_element",
                {"sample": idx, "meets_t": ic.meets_t_dim,
                 "stabilization": ic.stabilization_degree}, proper_closure_ok(ic))
    unit_samples = _seeded_elements(alg, seed + 1, 20, augmentation=False)
    for idx, x in enumerate(unit_samples):
        ic = alg.right_ideal_closure([x])
        rep.add("closure_of_counit_nonzero_element", {"sample": idx},
                ic.contains_one)
    # the proof's step "a right ideal that contains T is the augmentation
    # ideal", on the closure of the d generators
    ic = alg.closure_of_t()
    rep.add("augmentation_closure_stable",
            {"dim": ic.subspace.dim, "expected": aug.dim},
            ic.subspace == aug)
    return rep


_SUITES = {
    "axioms": suite_axioms,
    "embedding": suite_embedding,
    "endo": suite_endo,
    "simple": suite_simple,
    "pbw": suite_pbw,
    "jordan": suite_jordan,
    "lemma": suite_lemma,
    "expansion": suite_expansion,
    "s2": suite_s2,
    "hopf": suite_hopf,
    "mainthm": suite_mainthm,
}


def run_suite(name, system, N=None, seed=0, max_monomials=MAX_MONOMIALS):
    """Run one named suite (or "all") and return its SuiteReport.

    Deterministic given (name, system, N, seed).
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    N = N if N is not None else default_cap(system)
    # checked before any suite runs, so that no suite passes vacuously
    binding = max(MIN_CAP, key=MIN_CAP.get) if name == "all" else name
    if binding in MIN_CAP and N < MIN_CAP[binding]:
        raise DegreeBudgetExceeded(
            f"the {binding} suite needs cap >= {MIN_CAP[binding]}, got {N}")
    # and so is the free table's size, so that a wide system is rejected
    # before the lts suites spend their time on it
    if name not in LTS_SUITES:
        check_table_size(system.dim, N, max_monomials)
    cache = {}

    def alg_cache(cap):
        if cap not in cache:
            cache[cap] = EnvelopingAlgebra(system, cap, max_monomials)
        return cache[cap]

    start = time.monotonic()
    if name == "all":
        names = [n for n in SUITE_NAMES if n not in ("all", "s2")]
        if system.dim == 2:
            names.append("s2")
        combined = SuiteReport("all")
        for n in sorted(names):
            sub = _SUITES[n](system, alg_cache, N, seed).finish()
            for r in sub.records:
                combined.records.append({**r, "id": f"{n}.{r['id']}"})
        combined.finish()
        combined.timing = time.monotonic() - start
        return combined
    rep = _SUITES[name](system, alg_cache, N, seed).finish()
    rep.timing = time.monotonic() - start
    return rep
