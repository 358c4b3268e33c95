"""Exception types shared across the package."""


class SkewError(Exception):
    """Base class for all library errors."""


class UsageError(SkewError):
    """Bad argument or malformed input (maps to CLI exit code 1)."""


class MathObstruction(SkewError):
    """A genuine mathematical obstruction, not a bug (CLI exit code 2)."""


class ContextMismatch(UsageError):
    """Operands live in incompatible rings."""


class PrecisionExhausted(SkewError):
    """An operation was requested beyond the available truncation order."""


class ZeroInversion(SkewError):
    """Inversion of a (numerically) zero series."""


class NotMonicError(UsageError):
    """Left division requires a monic divisor."""


class TwistCoprimeFailure(MathObstruction):
    """The twisted-residue coprimality precondition fails at some n >= 1."""

    def __init__(self, n, witness=None):
        self.n = n
        self.witness = witness
        msg = f"residues not coprime against the twist at n={n}"
        if witness is not None:
            msg += f" (common factor {witness})"
        super().__init__(msg)


class Obstruction(MathObstruction):
    """A sigma-zero recursion hits a vanishing pivot at exponent q."""

    def __init__(self, q, detail=""):
        self.q = q
        super().__init__(f"obstruction at exponent {q}" + (f": {detail}" if detail else ""))


class RootFindingError(SkewError):
    """Root iteration failed to settle; carries the best iterate found."""

    def __init__(self, msg, best=None):
        self.best = best
        super().__init__(msg)


class NoSplittingRoot(SkewError):
    """No residue root produced a proper orbit split (internal error: the
    theory guarantees one exists)."""


class ParseError(UsageError):
    """Syntax error with a position annotation."""

    def __init__(self, text, pos, msg):
        self.text = text
        self.pos = pos
        self.msg = msg
        caret = " " * pos + "^"
        super().__init__(f"{msg} at position {pos}\n  {text}\n  {caret}")
