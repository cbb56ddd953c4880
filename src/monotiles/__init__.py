"""Congruent Folner ladders of monotiles, hierarchical block subshifts over
them, and exact finite-depth approximants of their invariant-measure simplex.
"""

from .analysis import (
    CylinderId,
    boundary_mass_bound,
    check_partitions,
    return_times,
    scan_occurrences,
    syndeticity_window,
)
from .blocks import (
    Assignment,
    BlockHierarchy,
    Pattern,
    assignment_from_matrix,
    augment_matrix,
    base_blocks,
    build_hierarchy,
    render_pattern,
    verify_c3,
)
from .errors import (
    AugmentationError,
    ConfigError,
    DistinctnessError,
    EncodingError,
    HypothesisError,
    InfeasibleError,
    InvarianceUnreachableError,
    MonotileError,
    NotCosetRepsError,
    RenderUnsupportedError,
    SelectionExhaustedError,
    UnsupportedGroupError,
)
from .folner import (
    FolnerLadder,
    build_abelian_chain_ladder,
    build_heisenberg_ladder,
    build_lattice_ladder,
    build_pruefer_ladder,
    check_congruent,
    compose_exact_sequence,
    extend_virtually,
    folner_defect,
    group_ladder,
    iterated_glue,
    right_invariance_defect,
)
from .groups import (
    Certificate,
    Cyclic,
    DirectProduct,
    FiniteExtension,
    FiniteSubset,
    GroupContext,
    Heisenberg,
    Lattice,
    Pruefer,
    Rationals,
    context_from_descriptor,
    product_set,
    standard_generators,
)
from .matrices import (
    ManagedMatrix,
    ManagedSequence,
    group_matrices,
    positivity_horizon,
    select_subsequence_lemma8,
)
from .pipeline import (
    DEFAULT_CONFIG,
    PipelineConfig,
    RunReport,
    StageResult,
    run_pipeline,
)
from .simplex import (
    RealizationResult,
    SimplexApproximant,
    SimplexPoint,
    approximate_limit,
    check_nesting,
    hull_contains,
    incidence_from_hierarchy,
    push,
    realize_finite_simplex,
    standard_vertices,
    tail_cluster_diameters,
)

__version__ = "0.1.0"
