"""The one exception type of the library.

A :class:`DomainError` is a physics/domain failure (invalid input regime, no
bound states, unsupported flux case, ...); its message names the condition,
and the CLI prints it and exits 2.  Verification failures use exit code 3 and
are not exceptions.
"""


class DomainError(Exception):
    """An input or result outside the domain of the closed forms or oracles."""
