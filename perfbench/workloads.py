"""The benchmark's workloads: what each one runs, and why it was chosen.

Every workload is a closed loop with one client: an op starts when the
previous one has ended and nothing runs in parallel (the package is
single-process and single-threaded).  The seed only permutes op order, and in
`session` it also picks the numerator `a` of each Gauss sum; the amount of
work in a pass is otherwise the same for every seed.  That is why `session`
keeps the listed order of the queries that share the Euler/partition tables
and the lru caches (their order changes how much a pass recomputes) and lets
the seed place the other queries among them.

The cost of a `verify` grows along two independent axes: the level N sets the
dimension N-1 of the theta lattice DP, and the truncation nMax sets the
partition table (to N*nMax) and the length of the dense (q;q)^(+-N) products.
`deep` stresses the second axis, `wide` the first, and `session` runs the same
code warm in one process, the way a notebook user works through the library.

Each workload has a "full" scale (the timed runs) and a "smoke" scale (tiny
sizes, used by `run.py --smoke` to check the harness itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class CliOp:
    """One `cphi` command line, run in a fresh interpreter."""

    id: str
    argv: tuple
    content: str  # which reader in content.py extracts the coefficient content


@dataclass(frozen=True)
class SessionOp:
    """One library query inside the session process."""

    id: str
    kind: str  # a key of session.QUERIES
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cli": one fresh process per op; "session": one process per pass
    scales: dict  # scale -> tuple of ops (CliOp) or a SessionOp builder


def _verify(level: int, n_max: int, fmt: str = "text") -> CliOp:
    argv = ["verify", "--N", str(level), "--nmax", str(n_max)]
    if fmt != "text":
        argv += ["--format", fmt]
    return CliOp(f"verify-N{level}-n{n_max}-{fmt}", tuple(argv), f"verify_{fmt}")


def _table(which: str, n_max: int | None = None) -> CliOp:
    argv = ["table", "--which", which]
    op_id = f"table-{which}"
    if n_max is not None:
        argv += ["--nmax", str(n_max)]
        op_id += f"-n{n_max}"
    return CliOp(op_id, tuple(argv), f"table_{which}")


# Gauss-sum numerators the seed chooses from; golden digests cover all of them.
GAUSS_A_CANDIDATES = range(1, 7)


def gauss_a_candidates(c: int) -> list:
    return [a for a in GAUSS_A_CANDIDATES if gcd(a, c) == 1]


def _session_ops(sizes: dict, choose_a) -> list:
    """The session's queries; choose_a(c) yields the numerators for modulus c."""
    ops = []
    for n in sizes["verify13"]:
        ops.append(SessionOp(f"verify-N13-n{n}", "verify", (13, n)))
    n_small = sizes["n_small"]
    for level in sizes["verify_levels"]:
        ops.append(SessionOp(f"verify-N{level}-n{n_small}", "verify", (level, n_small)))
    for level in sizes["kolitsch_levels"]:
        ops.append(SessionOp(f"kolitsch-N{level}-n{n_small}", "kolitsch", (level, n_small)))
    for level in sizes["b1_levels"]:
        ops.append(SessionOp(f"b1-N{level}", "b1", (level,)))
    for level in sizes["gauss_levels"]:
        for c in sizes["gauss_moduli"]:
            for a in choose_a(c):
                ops.append(SessionOp(f"gauss-N{level}-c{c}-a{a}", "gauss", (level, a, c)))
    for level in sizes["bernoulli_levels"]:
        k_max = sizes["bernoulli_k"]
        ops.append(SessionOp(f"bernoulli-N{level}-k{k_max}", "bernoulli", (level, k_max)))
    n_eis = sizes["eisenstein_n"]
    for level in sizes["eisenstein_levels"]:
        ops.append(SessionOp(f"theta-eisenstein-N{level}-n{n_eis}", "theta_eisenstein", (level, n_eis)))
        ops.append(SessionOp(f"eisenstein-factored-N{level}-n{n_eis}", "eisenstein_factored", (level, n_eis)))
    n_eta = sizes["eta_n"]
    ops.append(SessionOp(f"eta-quotient-N13-d1-n{n_eta}", "eta_quotient", (13, 1, n_eta)))
    ops.append(SessionOp(f"multi-partition-r13-n{n_eta}", "multi_partition", (13, n_eta)))
    return ops


SESSION_SIZES = {
    "full": {
        "verify13": (100, 200, 400, 600),
        "n_small": 200,
        "verify_levels": (5, 7, 11, 17, 19),
        "kolitsch_levels": (5, 7, 11),
        "b1_levels": (13, 17, 19, 23),
        "gauss_levels": (5, 7, 11, 13, 35),
        "gauss_moduli": (3, 5, 7, 11, 13),
        "bernoulli_levels": (5, 13, 35),
        "bernoulli_k": 40,
        "eisenstein_levels": (13, 35),
        "eisenstein_n": 600,
        "eta_n": 1000,
    },
    "smoke": {
        "verify13": (10, 20),
        "n_small": 20,
        "verify_levels": (5, 7),
        "kolitsch_levels": (5,),
        "b1_levels": (13,),
        "gauss_levels": (5, 7),
        "gauss_moduli": (3, 5),
        "bernoulli_levels": (5,),
        "bernoulli_k": 6,
        "eisenstein_levels": (13,),
        "eisenstein_n": 20,
        "eta_n": 50,
    },
}


WORKLOADS = {
    "deep": Workload(
        name="deep",
        why=(
            "long truncation at low levels (N=5 to q^1600, N=13 to q^600), one "
            "fresh cphi process per op: Euler/partition tables and dense products dominate"
        ),
        kind="cli",
        scales={
            # N*nMax stays just under the 8192 bucket of the Euler table; the
            # ROADMAP's nMax=1000/3000 runs would cost ~30 min per PR check.
            "full": (_verify(5, 1600, "csv"), _verify(13, 600, "json")),
            "smoke": (_verify(5, 40, "csv"), _verify(13, 30, "json")),
        },
    ),
    "wide": Workload(
        name="wide",
        why=(
            "high levels (N=23, composite N=35) at small truncation plus the kolitsch "
            "and b1 tables, fresh process per op: the theta DP at dim 22 and 34 is the large "
            "non-Euler cost"
        ),
        kind="cli",
        scales={
            "full": (
                _verify(23, 200),
                _verify(35, 200, "json"),
                _table("kolitsch", 200),
                _table("b1"),
            ),
            "smoke": (
                # the smallest truncations that reach the Sturm bounds (22 and 68)
                _verify(23, 22),
                _verify(35, 68, "json"),
                _table("kolitsch", 20),
                _table("b1"),
            ),
        },
    ),
    "session": Workload(
        name="session",
        why=(
            "the same code warm in one library process with caches kept between calls; "
            "the only workload reaching gauss_sums, characters and eisenstein"
        ),
        kind="session",
        scales=SESSION_SIZES,
    ),
}


# session query kinds that share tables or caches: their order sets the work
CACHE_SHARING = {"verify", "kolitsch", "b1", "eta_quotient", "multi_partition"}


def pass_ops(workload: Workload, scale: str, rng) -> list:
    """The ops of one pass, in the order the seeded rng gives them."""
    if workload.kind == "cli":
        ops = list(workload.scales[scale])
        rng.shuffle(ops)
        return ops
    ops = _session_ops(workload.scales[scale], lambda c: [rng.choice(gauss_a_candidates(c))])
    fixed = iter([op for op in ops if op.kind in CACHE_SHARING])
    free = [op for op in ops if op.kind not in CACHE_SHARING]
    rng.shuffle(free)
    free = iter(free)
    slots = [op.kind in CACHE_SHARING for op in ops]
    rng.shuffle(slots)
    return [next(fixed) if is_fixed else next(free) for is_fixed in slots]


def golden_ops(workload: Workload, scale: str) -> list:
    """Every op a pass can contain at this scale, for recording golden digests."""
    if workload.kind == "cli":
        return list(workload.scales[scale])
    return _session_ops(workload.scales[scale], gauss_a_candidates)
