"""Exact-arithmetic toolkit for crystalline character lifts.

Submodules:

* fields     -- multiplicative characters of finite fields as exponents
* transport  -- integer transportation with exact / modular sums
* lifting    -- field shapes and their embedding order, weights, lift certificates
* induction  -- determinant-of-induction oracle on finite groups
* ledger     -- symbolic determinant bookkeeping and twists
* certio     -- JSON wire format and schemas
* verify     -- independent certificate verifier
* sweep      -- grid sweep driver
* cli        -- command-line entry point
"""

from .errors import CertificateError, InfeasibleError
from .fields import (
    DigitVector,
    FiniteFieldSpec,
    MultChar,
    digits,
    from_digits,
    norm_exponent,
    restrict,
)
from .induction import FrobeniusModel, MonomialRep, det_of, induce, verify_det_induction
from .ledger import (
    CrystCharSpec,
    WeightProfile,
    shift_for_extension,
    twist,
    twist_shout,
)
from .lifting import (
    DetSpec,
    LiftCertificate,
    LocalFieldShape,
    compat_check,
    irr_crys_lift,
)
from .transport import regular_transport, verify_assignment
from .units import UnitExpr

__version__ = "0.1.0"
