"""Exact inference for discrete networks with deterministic nodes,
built around rewriting each deterministic table as a product of
pairwise potentials through one hidden variable."""

from .benchcat import (
    BenchRow,
    BenchmarkReport,
    StudentModelSpec,
    TaskFragment,
    TaskSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
    generate_task_model,
    report_to_csv,
    run_clique_benchmark,
    star_family,
)
from .core import Evidence, Factor, Variable
from .cliques import CliqueReport, moralize_and_triangulate
from .fileio import (
    parse_base,
    parse_evidence,
    parse_form,
    parse_function,
    parse_network,
    write_base,
    write_evidence,
    write_form,
    write_function,
    write_network,
)
from .errors import (
    BudgetExceededError,
    FactorbnError,
    IllegalExpressionError,
    InternalConsistencyError,
    ParseError,
    ValidationError,
    ZeroNormalizerError,
)
from .factorization import (
    Base,
    FactorizedForm,
    Verdict,
    build_factorized_form,
    known_base_conjunction,
    known_base_max,
    level_sets,
    trivial_factorization,
    verify_factorization,
)
from .functions import (
    DeterministicFunction,
    deterministic_to_potential,
    eval_formula,
    function_from_formula,
    parse_formula,
)
from .inference import (
    posterior_by_name,
    transform_network,
    variable_elimination,
)
from .mbh import (
    MbhSolution,
    SearchBudget,
    SearchStats,
    can_generate,
    enumerate_rectangles,
    greedy_cover_base,
    solve_mbh,
)
from .network import Cpt, Network
from .rectangles import (
    Expression,
    Hyperrectangle,
    evaluate_expression,
    format_expression,
    full_space,
    parse_expression,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
