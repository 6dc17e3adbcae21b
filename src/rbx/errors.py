"""Exception hierarchy shared by all rbx modules.

The CLI maps every RbxError to exit code 2; a failed check (a real
mathematical "no") is never an exception, it is a falsy report.
"""


class RbxError(Exception):
    """Base class for all rbx errors."""


class InputError(RbxError):
    """Malformed or inconsistent input: bad shapes, wrong spaces,
    violated preconditions, unparseable files."""


class CapacityError(RbxError):
    """A configured resource bound was exceeded (arity cap, search
    budget, truncation degree)."""


class CharacteristicError(RbxError):
    """The base field lacks an inverse the operation needs: only the
    integration denominators 2..N of truncated-poly over F_p, p <= N."""
