"""Exception types shared across the package."""


class RnnLabError(Exception):
    """Base class for all package errors."""


class NonFiniteState(RnnLabError):
    """A simulated quantity became NaN/Inf. Carries the step index.

    Divergence is a finding, not a nuisance: callers that sweep over
    parameters catch this and record the offending point instead of
    clamping.  Only IEEE inf/NaN raises it; a large but finite state
    (say 1e300 under a contracting map) does not.  The cost and gradient
    pass raises it with the step and quantity ("state", "output", "input")
    of the first non-finite value, or as step 0 "gradient".
    """

    def __init__(self, step, what="state"):
        self.step = int(step)
        self.what = what
        super().__init__(f"non-finite {what} at step {self.step}")


class LengthMismatch(RnnLabError, ValueError):
    """Sequence containers disagree on length or width."""


class EmptyRegion(RnnLabError, ValueError):
    """A sampling region has no volume or no sample budget."""


class TooFewSamples(RnnLabError, ValueError):
    """Not enough steady-state samples to classify an attractor."""


class SingularMatrix(RnnLabError, ValueError):
    """A matrix required to be invertible is singular."""


class DivergentCost(RnnLabError):
    """A cost is non-finite or above ``sensitivity.DIVERGENT_COST_BOUND``.

    Part of the one divergence rule of ``sensitivity``, with
    :class:`NonFiniteState`: ``cost``, ``gradient`` and training raise it
    for a single point, and a stacked sweep marks the row.  The bound is on
    the cost, not on the state.
    """


class ConfigError(RnnLabError, ValueError):
    """Invalid or unknown configuration keys/values."""
