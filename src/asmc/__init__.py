"""Alternating sign matrices with one -1: charge statistics, the
discharging and neutralizing bijections, generalized inversion tables,
mixed lattice-path configurations, path duality, and exhaustive
small-order verification of all of it.

All values are immutable and all operations pure functions, so anything
here may be shared freely between threads.

The function :func:`discharge` shadows the submodule of the same name:
``asmc.discharge``, and so ``import asmc.discharge as d``, is the
function.  The module itself is ``sys.modules["asmc.discharge"]`` (which
``importlib.import_module("asmc.discharge")`` also returns), and
``from asmc.discharge import recharge`` reads it as usual.
"""

from .cells import (
    CellGeometry,
    CellSums,
    ChargeParams,
    SignClass,
    cell_sums,
    charges,
    geometry,
    sign_class,
)
from .discharge import (
    DischargeTuple,
    discharge,
    partial_discharge,
    recharge,
    tuple_from_json,
    tuple_valid,
)
from .displacement import Region, apply_in_region, h_shift, v_shift
from .enumeration import (
    DEFAULT_CAP,
    distribution,
    enumerate_asm,
    formula_count,
)
from .errors import (
    AlternationViolation,
    AsmcError,
    BadEntry,
    CapExceeded,
    InternalInvariantViolation,
    InvalidPair,
    InvalidTable,
    InvalidTuple,
    MalformedConfiguration,
    NegativeClass,
    NotOneMinus,
    NotOneNStep,
    NotSquare,
    ParseError,
    PreconditionFailed,
    SumViolation,
)
from .inv_table import (
    GenInvTable,
    ParamVector,
    dual_table,
    gen_table,
    pair_from_table,
    perm_from_table,
    perm_table,
    table_from_json,
    table_from_text,
    table_params,
    table_valid,
)
from .matrix import (
    AsmMatrix,
    ClassicalParams,
    classical_params,
    inversions,
    is_permutation_matrix,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    matrix_to_text,
    minus_count,
    perm_matrix,
    perm_one_line,
    reflect,
    validate_asm,
)
from .neutral import (
    NeutralPair,
    flip_charge,
    neutralize,
    pair_from_json,
    restore,
    swap_charges,
)
from .paths import (
    MixedConfiguration,
    MixedPath,
    config_from_json,
    config_from_pair,
    config_from_table,
    config_params,
    dual_config,
    pair_from_config,
    render_ascii,
    render_svg,
    table_from_config,
    validate_config,
)
from .verify import PropertyResult, VerifyReport, verify_suite

__version__ = "0.1.0"
