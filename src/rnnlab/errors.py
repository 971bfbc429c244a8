"""Exception types shared across the package."""


class RnnLabError(Exception):
    """Base class for all package errors."""


class NonFiniteState(RnnLabError):
    """A simulated quantity became NaN/Inf. Carries the step index.

    Divergence is a finding, not a nuisance: callers that sweep over
    parameters catch this and record the offending point instead of
    clamping.  Only IEEE inf/NaN raises it; a large but finite state
    (say 1e300 under a contracting map) does not.  A cost evaluation
    that raises it counts as divergent, as defined in :class:`DivergentCost`.
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
    """Cost evaluation diverged at a sampled parameter point.

    The one definition every cost sweep applies: an evaluation diverges
    when its simulation raises :class:`NonFiniteState`, or when the cost
    is non-finite or above ``sensitivity.DIVERGENT_COST_BOUND``.  The bound
    is on the cost, not on the state.
    """


class ConfigError(RnnLabError, ValueError):
    """Invalid or unknown configuration keys/values."""
