"""Inference for two Weibull shape parameters from upper record values.

Point estimation, generalized confidence intervals and p-values for the
ratio and difference of the shape parameters of two Weibull
distributions, each observed only through its upper record values, plus
a coverage simulation harness for the ratio interval.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BracketError,
    DegenerateDataError,
    FloatRangeError,
    InsufficientDrawsError,
    InvalidDataError,
    SingularInformationError,
    WeibullRecordsError,
)
from .gpq import (
    IntervalEstimate,
    PivotalDraws,
    TestResult,
    am_gm_ratio,
    p_value_one_sided,
    p_value_two_sided,
    percentile_interval,
    percentile_ranks,
    pivotal_equation,
    sample_pivotal,
    sample_shape_pivot,
    solve_shape_pivot,
)
from .records import (
    RecordSeries,
    exponential_records,
    extract_upper_records,
    weibull_records,
)
from .simulate import (
    CellError,
    SimConfig,
    SimReport,
    cell_tag,
    default_table_grid,
    render_table,
    report_row,
    run_cell,
    run_grid,
)
from .weibull import (
    PooledFit,
    WeibullFit,
    WeibullParams,
    mle_records,
    observed_information,
    pooled_loglik,
    pooled_mle,
    shape_mle,
    record_loglik,
    se_from_hessian,
    weibull_cdf,
)

# Every name the imports above bind, apart from the submodules that
# importing them binds too.
__all__ = sorted(["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)])
