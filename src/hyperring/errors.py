"""Exception taxonomy for finite multiplicative hyperring computations.

Every structural failure carries a ``witness`` attribute: the smallest
tuple of element indices (in canonical order) exhibiting the violation,
or ``None`` when no witness applies.
"""

from __future__ import annotations


class HyperRingError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ValidationError(HyperRingError):
    """An axiom of the multiplicative-hyperring structure failed."""


class NotAGroup(ValidationError):
    """(carrier, +) is not an abelian group with the declared zero/negatives."""


class EmptyProduct(ValidationError):
    """Some hyperoperation cell is empty."""


class NotAssociative(ValidationError):
    """Associativity of the hyperoperation fails at the witness triple."""


class NotDistributive(ValidationError):
    """A distributivity inclusion fails at the witness triple."""


class SignLawViolated(ValidationError):
    """a o (-b) = (-a) o b = -(a o b) fails at the witness pair."""


class IdentityClaimFalse(ValidationError):
    """The declared identity element does not have the declared flavor."""


class ForeignElement(HyperRingError):
    """An element index lies outside the ring's carrier."""


class NoIdentity(HyperRingError):
    """The operation requires an identity element but the ring has none."""


class BadModulus(HyperRingError):
    """Modulus below 2 passed to the residue-ring builder."""


class EmptyMultiplierSet(HyperRingError):
    """The multiplier set of a residue ring must be nonempty."""


class NotAHyperideal(HyperRingError):
    """The given subset fails a hyperideal closure condition."""


class NotProper(HyperRingError):
    """A primeness predicate was asked about an improper hyperideal."""


class EmptySet(HyperRingError):
    """A nonempty subset was required."""


class NotZeroAbsorbing(HyperRingError):
    """The operation is only defined on zero-absorbing rings."""


class BadHomomorphism(HyperRingError):
    """The given map violates a structure-preservation law."""


class BadEndomorphism(BadHomomorphism):
    """The given map is not a good endomorphism of the expected ring."""


class NotInvariant(HyperRingError):
    """The endomorphism does not preserve the ideal, so no induced map exists."""


class CapExceeded(HyperRingError):
    """An enumeration would exceed its configured size cap."""


class SignatureMismatch(HyperRingError):
    """The instance does not carry the components a check consumes."""
