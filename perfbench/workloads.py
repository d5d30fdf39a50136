"""Workload definitions shared by the benchmark runner (run.py) and its worker.

Every workload is a seeded input plus one kind of operation:

* ``sedenion_audit_q`` / ``sedenion_audit_fp``: the dimension-16
  Cayley-Dickson sedenions over Q or GF(65521), with the basis permuted by the
  seed (seed 0 keeps the canonical basis).  One operation is
  ``homstruct.structure_theorem_audit`` plus ``reports.audit_json`` and
  ``reports.render``.  A basis permutation gives an isomorphic algebra, so the
  check list, flags and subspace dimensions do not depend on the seed.
* ``campaign``: ``campaign.run_campaign`` over the builtin corpus plus
  ``generated_algebras(CAMPAIGN_SEEDS)``, every algebra with its basis
  permuted by the seed and its name.  Isomorphic inputs keep the check list,
  statuses and totals of seed 0 and nearly the same work; a seed-derived
  offset into the generator would change both (1811 to 1916 checks for
  offsets 0 to 120 with 40 seeds).  One operation is one algebra's invariant
  suite (``campaign.algebra_checks``).
* ``cli_analyze``: ``homalg analyze`` in a fresh interpreter on the
  quaternions (basis permuted by the seed), written to a file during set-up.

This module imports nothing from ``homalg`` at import time: run.py uses
it without loading the package, and the worker imports the package inside
the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("sedenion_audit_q", "sedenion_audit_fp", "campaign", "cli_analyze")

SEDENION_LEVELS = 4  # 2**4 = 16 basis elements
FP_MODULUS = 65521
CAMPAIGN_SEEDS = 80
QUATERNION_LEVELS = 2

# Tail percentile per workload: the highest whole percentile that leaves at
# least ten operations beyond it in the smallest run the workload makes (one
# pass of 90 algebras; 34 CLI invocations on a slow host).  It is fixed so
# that runs with different operation counts report the same quantile.  The
# audits make too few operations per run for a tail, so theirs is the
# slowest operation.
TAIL_PERCENTILE = {
    "sedenion_audit_q": 100,
    "sedenion_audit_fp": 100,
    "campaign": 88,
    "cli_analyze": 70,
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def permutation(n: int, seed: int, salt: str = "") -> list:
    """Identity for seed 0, otherwise a shuffle fixed by (seed, salt)."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/{salt}").shuffle(perm)
    return perm


def permuted(algebra, seed: int, salt: str = ""):
    """The same algebra on the basis e'_i = e_perm[i]."""
    from homalg.algebra import Algebra

    n = algebra.dim
    perm = permutation(n, seed, salt)
    t = algebra.tensor
    tensor = [
        [[t[perm[i]][perm[j]][perm[k]] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    labels = tuple(algebra.labels[p] for p in perm) if algebra.labels else None
    return Algebra(algebra.field, tensor, labels=labels)


def sedenions(workload: str, seed: int):
    from homalg.constructions import cayley_dickson_chain
    from homalg.fields import GF, QQ

    field = QQ if workload == "sedenion_audit_q" else GF(FP_MODULUS)
    base = cayley_dickson_chain(SEDENION_LEVELS, field=field)[SEDENION_LEVELS].base
    return permuted(base, seed)


def campaign_corpus(seed: int):
    from homalg import campaign

    named = campaign.builtin_corpus() + campaign.generated_algebras(CAMPAIGN_SEEDS)
    return [(name, permuted(a, seed, name)) for name, a in named]


def write_quaternions(seed: int, path) -> None:
    from homalg import fileio
    from homalg.constructions import cayley_dickson_chain

    base = cayley_dickson_chain(QUATERNION_LEVELS)[QUATERNION_LEVELS].base
    fileio.emit(permuted(base, seed), path)


def audit_signature(doc: dict) -> str:
    """Isomorphism-invariant digest of an audit report: check names with
    statuses, subspace dimensions and flags."""
    return sha256(
        canonical(
            {
                "checks": [[c["name"], c["status"]] for c in doc["checks"]],
                "dims": {k: v["dim"] for k, v in doc["subspaces"].items()},
                "twist_dim": doc["twist_space"]["dim"],
                "flags": doc["flags"],
                "ok": doc["ok"],
            }
        )
    )


def campaign_signature(doc: dict) -> str:
    """Isomorphism-invariant digest of a campaign report: totals plus every
    entry's algebra, check name and status."""
    return sha256(
        canonical(
            {
                "algebras": doc["algebras"],
                "total_checks": doc["total_checks"],
                "failures": doc["failures"],
                "flagged": doc["flagged"],
                "entries": [[e["algebra"], e["check"], e["status"]] for e in doc["entries"]],
            }
        )
    )
