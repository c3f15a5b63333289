"""The one exception type of the pricing and hedging modules.

Every rejected input or failed numerical step raises ``PricingError``,
and its message names the check that failed.  Callers catch this one
type, so it has no subclasses.
"""


class PricingError(ValueError):
    """Invalid market data, contract terms, or a failed numerical step."""
