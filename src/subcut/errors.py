"""Error types shared across the package, and the brute-force capacity table.

Plain ValueError is used for malformed arguments (dimension mismatches,
bad indices); the classes here mark conditions callers may want to
catch separately.
"""


class ModelError(ValueError):
    """Instance data violates a model-level requirement (e.g. negative cut weights)."""


class CapacityError(ValueError):
    """A brute-force or enumeration guard was exceeded."""


# Largest n each exhaustive path accepts.  Costs grow as 4^n (submodularity
# check) or 2^n times the cost of one point, which is why each path has a
# limit of its own.
CAPACITY = {
    "cut validation": 12,  # largest n that validate_cuts="auto" checks; "on" is bounded by "brute force"
    "cube enumeration": 14,  # oracles.cube_points, MultilinearFunction.values_on_cube, is_submodular_bruteforce
    "brute force": 20,  # oracles.cube_table (brute_force_primal, validate_cut_bruteforce)
    # `subcut verify` skips a check above its limit instead of failing
    "verify submodular": 12,
    "verify extension identity": 10,
    "verify parts submodular": 10,
    "verify decomposition identity": 14,
}


def check_capacity(name: str, n: int) -> None:
    """Raise CapacityError when n exceeds the limit of ``name`` in CAPACITY."""
    limit = CAPACITY[name]
    if n > limit:
        raise CapacityError(f"{name} limited to n <= {limit}, got n = {n}")


class NumericError(RuntimeError):
    """Numerical failure inside a solver (singular basis, iteration cap, ...)."""


class SeparationBudget(RuntimeError):
    """The step-length search ran out of its iteration budget; the cut is skipped."""
