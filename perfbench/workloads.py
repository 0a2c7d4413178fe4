"""Seeded job lists for the three benchmark workloads.

A job is a plain dict: ``argv`` for ``liecert.cli.run`` (file arguments are
paths into the run's input directory), ``expect`` with the exit code and the
verdict invariants that ``checks.Checker`` tests, and ``files`` mapping each
input file name to the JSON it holds.  The seed only shuffles the job order
of ``enumerate`` and ``subalgebra``; for ``affine`` it draws the elements and
operators, while the contexts, job counts, support shapes and windows stay
fixed so that the cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("enumerate", "subalgebra", "affine")

# Exhaustive minimal counts; types whose 2^|roots| scan takes a few seconds.
MINIMAL_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 32,
    ("A", 4): 250,
    ("B", 2): 8,
    ("B", 3): 72,
    ("C", 3): 80,
    ("G", 2): 12,
}

# Cartan-graph adjacency of the simple roots, in the package's numbering.
# Only the two-colouring is used, to build the bipartite minimal Psi.
DYNKIN_EDGES = {
    ("B", 4): [(0, 1), (1, 2), (2, 3)],
    ("C", 4): [(0, 1), (1, 2), (2, 3)],
    ("D", 4): [(0, 1), (1, 2), (1, 3)],
    ("F", 4): [(0, 1), (1, 2), (2, 3)],
    ("G", 2): [(0, 1)],
    ("E", 6): [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
    ("E", 7): [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)],
    ("E", 8): [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
}

OMITTED = [
    "minimal D4: 27-50 s per job, longer than a whole run",
    "minimal A5, B4, C4: refused by the 2^n enumeration cap, so they would count as failures",
    "selftest criterion 7: about 16 s, and no CLI path other than selftest reaches decompose_derivation",
]


def psi_text(rows) -> str:
    return ";".join(",".join(str(v) for v in row) for row in rows)


def chain_psi(rank: int) -> list[list[int]]:
    """alpha_1, alpha_1 + alpha_2, ..., alpha_1 + ... + alpha_rank."""
    return [[1 if k <= i else 0 for k in range(rank)] for i in range(rank)]


def bipartite_psi(family: str, rank: int) -> list[list[int]]:
    """+alpha on one colour class of the Dynkin diagram, -alpha on the other."""
    colour = [None] * rank
    colour[0] = 1
    edges = DYNKIN_EDGES[(family, rank)]
    todo = [0]
    while todo:
        i = todo.pop()
        for a, b in edges:
            for u, v in ((a, b), (b, a)):
                if u == i and colour[v] is None:
                    colour[v] = -colour[u]
                    todo.append(v)
    return [[colour[i] if k == i else 0 for k in range(rank)] for i in range(rank)]


def _subspec(family: str, rank: int, psi) -> list[str]:
    return ["--family", family, "--rank", str(rank), "--psi", psi_text(psi)]


def minimal_job(family: str, rank: int) -> dict:
    return {
        "id": f"minimal-{family}{rank}",
        "argv": ["minimal", "--family", family, "--rank", str(rank)],
        "expect": {"exit": 0, "command": "minimal", "count": MINIMAL_COUNTS[(family, rank)]},
    }


def subalgebra_job(command: str, family: str, rank: int, psi) -> dict:
    return {
        "id": f"{command}-{family}{rank}-{psi_text(psi)}",
        "argv": [command] + _subspec(family, rank, psi),
        "expect": {"exit": 0, "command": command, "rank": rank},
    }


def roots_job() -> dict:
    return {
        "id": "roots-A1",
        "argv": ["roots", "--family", "A", "--rank", "1"],
        "expect": {"exit": 0, "command": "roots", "roots": [[-1], [1]]},
    }


# ---------------------------------------------------------------------------
# enumerate and subalgebra: fixed inputs, seeded order
# ---------------------------------------------------------------------------


def enumerate_jobs(rng: random.Random) -> list[dict]:
    jobs = [minimal_job(f, r) for f, r in MINIMAL_COUNTS]
    rng.shuffle(jobs)
    return jobs


def subalgebra_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for rank in (4, 6, 8):
        for command in ("certify", "der", "aid", "centroid"):
            jobs.append(subalgebra_job(command, "A", rank, chain_psi(rank)))
    for rank in (6, 7, 8):
        jobs.append(subalgebra_job("certify", "E", rank, bipartite_psi("E", rank)))
    for family, rank in (("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)):
        jobs.append(subalgebra_job("aid", family, rank, bipartite_psi(family, rank)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# affine: seeded elements and operators over three loop contexts
# ---------------------------------------------------------------------------

B2_MINIMAL = [[1, 0], [2, 1]]
AFFINE_CONTEXTS = [("B", 2, B2_MINIMAL), ("A", 3, chain_psi(3)), ("A", 4, chain_psi(4))]
INNER_MATCH_WINDOWS = {2: (2, 3, 4, 5), 3: (2, 3), 4: (2,)}
DIJ_PER_CONTEXT = 20
AID_CHECKS_PER_KIND = 2
NONZERO_DEGREES = (-3, -2, -1, 1, 2, 3)


def _rvec(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(dim)]


def _element(support: dict[int, list[int]]) -> dict:
    return {"central": "0", "support": {str(d): [str(v) for v in vec] for d, vec in sorted(support.items())}}


def _affine_job(kind: str, n: int, family: str, rank: int, psi, extra: list[str], files: dict, expect: dict) -> dict:
    return {
        "id": f"{kind}-{family}{rank}-{n}",
        "argv": [kind] + _subspec(family, rank, psi) + extra,
        "files": files,
        "expect": dict(expect, command=kind, family=family, rank=rank, psi=psi),
    }


def _dij_jobs(rng: random.Random, family: str, rank: int, psi) -> list[dict]:
    """X with 1, 2 or 3 support degrees in turn and h_i (x) t^j forced nonzero.

    One-degree elements let the closed-form ansatz divide by a monomial;
    more degrees often make it fail, so those jobs take the general path.
    """
    dim = 2 * rank
    jobs = []
    for k in range(DIJ_PER_CONTEXT):
        i = 1 + k % rank
        j = NONZERO_DEGREES[k % len(NONZERO_DEGREES)]
        degrees = [j] + rng.sample([d for d in range(-3, 4) if d != j], k % 3)
        support = {d: _rvec(rng, dim) for d in degrees}
        support[j][i - 1] = rng.randint(1, 3)
        name = f"x-dij-{family}{rank}-{k}.json"
        jobs.append(
            _affine_job(
                "dij-witness", k, family, rank, psi,
                ["--i", str(i), "--j", str(j), "--x", name],
                {name: _element(support)},
                {"exit": 0, "i": i, "j": j, "x": name},
            )
        )
    return jobs


def _aid_check_jobs(rng: random.Random, family: str, rank: int, psi) -> list[dict]:
    """dij (nonzero degree), inner and tensor operators, all witnessed, plus
    degree-0 dij operators on degree-0 elements, which are obstructed."""
    dim = 2 * rank
    jobs = []
    n = 0
    for kind in ("dij", "inner", "tensor", "degree0"):
        for _ in range(AID_CHECKS_PER_KIND):
            weight = str(rng.choice([-2, -1, 1, 2]))
            if kind == "degree0":
                i = rng.randint(1, rank)
                vec = _rvec(rng, dim)
                vec[i - 1] = rng.randint(1, 3)
                support = {0: vec}
                term = {"kind": "dij", "i": i, "j": 0}
                expect = {"exit": 1}
            elif kind == "dij":
                i = rng.randint(1, rank)
                j = rng.choice([-2, -1, 1, 2])
                degrees = [j] + rng.sample([d for d in range(-2, 3) if d != j], rng.randint(0, 1))
                support = {d: _rvec(rng, dim) for d in degrees}
                support[j][i - 1] = rng.randint(1, 3)
                term = {"kind": "dij", "i": i, "j": j}
                expect = {"exit": 0}
            elif kind == "inner":
                degrees = rng.sample(range(-2, 3), rng.randint(1, 2))
                support = {d: _rvec(rng, dim) for d in degrees}
                y = {d: _rvec(rng, dim, -2, 2) for d in rng.sample(range(-2, 3), rng.randint(1, 2))}
                term = {"kind": "inner", "y": _element(y)}
                expect = {"exit": 0}
            else:
                # D = diag(0..0, a_1..a_m) on (h_1..h_l, x_1..x_m) is a derivation
                # because the root block of these subalgebras is abelian; X on the
                # root block only keeps the cocycle out of [X, -h (x) f].
                degrees = rng.sample(range(-2, 3), rng.randint(1, 2))
                support = {d: [0] * rank + _rvec(rng, rank) for d in degrees}
                diag = [0] * rank + [rng.choice([-2, -1, 1, 2]) for _ in range(rank)]
                matrix = {
                    "rows": dim,
                    "cols": dim,
                    "entries": [str(diag[r] if r == c else 0) for r in range(dim) for c in range(dim)],
                }
                f = {str(d): str(rng.choice([-2, -1, 1, 2])) for d in rng.sample(range(-1, 2), rng.randint(1, 2))}
                term = {"kind": "tensor", "matrix": matrix, "f": f}
                expect = {"exit": 0}
            term["weight"] = weight
            xname = f"x-aid-{family}{rank}-{n}.json"
            opname = f"op-aid-{family}{rank}-{n}.json"
            jobs.append(
                _affine_job(
                    "aid-check", n, family, rank, psi,
                    ["--op", opname, "--x", xname],
                    {xname: _element(support), opname: {"terms": [term]}},
                    dict(expect, x=xname, op=opname),
                )
            )
            n += 1
    return jobs


def _inner_match_jobs(rng: random.Random, family: str, rank: int, psi) -> list[dict]:
    """A nonzero dij combination with every degree inside the window, so
    each probe family is non-trivial and no Y matches (exit 3)."""
    jobs = []
    for n, window in enumerate(INNER_MATCH_WINDOWS[rank]):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(1, rank), rng.randint(-window, window))
            terms[key] = rng.choice([-3, -2, -1, 1, 2, 3])
        op = {"terms": [{"kind": "dij", "i": i, "j": j, "weight": str(w)} for (i, j), w in sorted(terms.items())]}
        name = f"op-match-{family}{rank}-{window}.json"
        jobs.append(
            _affine_job(
                "inner-match", n, family, rank, psi,
                ["--op", name, "--window", str(window)],
                {name: op},
                {"exit": 3},
            )
        )
    return jobs


def affine_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for family, rank, psi in AFFINE_CONTEXTS:
        jobs += _dij_jobs(rng, family, rank, psi)
        jobs += _aid_check_jobs(rng, family, rank, psi)
        jobs += _inner_match_jobs(rng, family, rank, psi)
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"enumerate": enumerate_jobs, "subalgebra": subalgebra_jobs, "affine": affine_jobs}

# The one job per workload that is also run as a fresh CLI process.
COLD_JOBS = {
    "enumerate": minimal_job("A", 4),
    "subalgebra": subalgebra_job("certify", "E", 8, bipartite_psi("E", 8)),
    "affine": _affine_job(
        "inner-match", 0, "B", 2, B2_MINIMAL,
        ["--op", "op-cold.json", "--window", "4"],
        {"op-cold.json": {"terms": [{"kind": "dij", "i": 1, "j": 1, "weight": "1"}]}},
        {"exit": 3},
    ),
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list; the same seed gives the same list."""
    rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
    return GENERATORS[workload](rng)


def write_inputs(jobs, input_dir: str) -> list[dict]:
    """Write each job's input files and return the jobs with absolute paths."""
    out = []
    for job in jobs:
        files = job.get("files", {})
        for name, obj in files.items():
            with open(os.path.join(input_dir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        argv = [os.path.join(input_dir, a) if a in files else a for a in job["argv"]]
        out.append(dict(job, argv=argv))
    return out
