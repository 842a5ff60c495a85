"""Error types shared across the package, and the capacity table.

Plain ValueError is used for malformed arguments (dimension mismatches,
bad indices); the classes here mark conditions callers may want to
catch separately.
"""


class ModelError(ValueError):
    """Instance data violates a model-level requirement (e.g. negative cut weights)."""


class CapacityError(ValueError):
    """A capacity limit was exceeded: an enumeration guard, or the n of an instance file."""


# Largest n each exhaustive path accepts.  Each path costs 2^n times the
# cost of one point, and that cost differs from path to path, which is why
# each has a limit of its own.  The last entry bounds every instance read
# from a file.
CAPACITY = {
    "cut validation": 12,  # largest n that validate_cuts="auto" checks; "on" is bounded by "brute force"
    "cube enumeration": 14,  # oracles.cube_points (the extension identity of `subcut verify`)
    "brute force": 20,  # oracles.CubeBasis (brute_force_primal, validate_cut_bruteforce, BmpInstance.infeasible)
    # the header's n, checked before set-up allocates O(n): a corner then holds two
    # (rays x columns) blocks of about n^2 doubles each, 64 MiB in all at this n
    "instance file": 2048,
}


def check_capacity(name: str, n: int) -> None:
    """Raise CapacityError when n exceeds the limit of ``name`` in CAPACITY."""
    limit = CAPACITY[name]
    if n > limit:
        raise CapacityError(f"{name} limited to n <= {limit}, got n = {n}")


class NumericError(RuntimeError):
    """Numerical failure inside a solver (singular basis, iteration cap, ...)."""


class SeparationBudget(RuntimeError):
    """Raised by nothing now, since every step search ends with a usable step; the
    benchmark's layer tracer still imports it to count such failures."""
