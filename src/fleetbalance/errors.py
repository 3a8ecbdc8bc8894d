"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a structural requirement; the message names the offending field."""


class InsufficientFleetError(ValueError):
    """Requested fleet totals cannot support an equilibrium (idle stock would be <= 0)."""


class RebalanceInfeasibleError(ValueError):
    """The driver-return program admits no feasible assignment.

    Attributes:
        witness: station index tuple whose outgoing taxi capacity is too
            small for the driver flow it must emit, or None if no
            superlevel set of the LP's Farkas ray is a violated cut (no
            ray, a wrong ray, or a program infeasible only within
            rounding).
        demand: driver outflow the witness set must emit.
        capacity: total taxi capacity leaving the witness set.
    """

    def __init__(self, message, witness=None, demand=None, capacity=None):
        super().__init__(message)
        self.witness = witness
        self.demand = demand
        self.capacity = capacity
