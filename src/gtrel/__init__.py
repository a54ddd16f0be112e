"""Exact-arithmetic Gelfand-Tsetlin relation modules over sl(n+1):
construction, generator actions, localization transforms, and the
minimal-orbit classification of simple admissible modules."""

from .action import (
    ELower,
    ERaise,
    GTModule,
    GTVector,
    act,
    basis_vector,
    casimir_alpha1,
    commutator,
    gen_E,
    gen_H,
    is_highest_weight_vector,
    is_simple,
    module,
    module_from_json,
    module_to_json,
    parse_generator,
    vector_from_json,
    vector_to_json,
    verify_axioms,
    weight_multiplicity,
    weight_multiplicity_sweep,
)
from .classify import (
    HWCase,
    Sl2InducedParams,
    bounded_case,
    family_is_simple,
    hw_relation_case,
    pairing,
    resolve_sl2_induced,
    verma_simple_relation,
)
from .core import format_rational, parse_rational, rational_sqrt
from .errors import GtrelError
from .localization import (
    LocalizationSpec,
    e21_injective,
    e21_surjective,
    em1_injective,
    em1_surjective,
    localize_e21,
    localize_family,
    permute_flag,
    quotient_top,
    twist_e21,
)
from .minimal_orbit import (
    InducedModule,
    Level,
    MinOrbitWeight,
    admissible_level,
    build_sl2_induced_minimal,
    dot_action,
    hw_module_of,
    hw_orbit_list,
    minimal_orbit_reps,
    rep_weight,
)
from .relations import (
    RelationSet,
    check_structure,
    is_admissible,
    is_noncritical_for,
    is_realization,
    reduce_relations,
    relation_set,
    relset_from_json,
    relset_to_json,
    satisfied_relations,
    satisfies,
)
from .tableau import (
    Tableau,
    apply_rational_shift,
    apply_shift,
    enumerate_basis_box,
    enumerate_weight_space,
    family_tableau,
    hw_tableau_case_a,
    hw_tableau_case_b,
    lem_key_tableau,
    tableau,
    tableau_from_json,
    tableau_to_json,
    unit_shift,
    weight_of,
    zero_shift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
