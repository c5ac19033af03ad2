"""borcherds-kit: exact arithmetic for Borcherds product expansions.

Lattices and discriminant forms, short-vector enumeration and theta series,
the Weil representation with exact cyclotomic scalars, truncated product
expansions over a Weyl chamber, and formal special-divisor relations with
the embedding trick and the modularity-criterion pairing.
"""

from .cyclotomic import CycScalar, e, sqrt_positive_int
from .divisors import (
    DivisorExpr,
    EmbeddingData,
    borcherds_relation,
    embedding_trick,
    fourier_splitting_holds,
    modularity_pairing,
    pullback,
    pullback_expr,
    relation_ideal,
)
from .forms import PrecisionError, WHForm, divide_by_24delta
from .lattice import (
    CuspData,
    DiscriminantForm,
    GlueData,
    GramLattice,
    coset_theta,
    cusp_data,
    direct_sum,
    discriminant_form,
    glue_lattice,
    is_maximal,
    isotropic_line,
    overlattice_witness,
    representation_count,
    short_vectors,
    theta_series,
    vectors_below,
)
from .product import (
    ProductExpansion,
    WeylChamber,
    chamber_of,
    constant_a,
    enumerate_walls,
    product_expand,
    reduce_f0,
)
from .qseries import (
    FracQSeries,
    LatticeQSeries,
    delta_series,
    eisenstein,
    j_series,
    lattice_binomial,
)
from .weil import (
    WeilRepData,
    braid_holds,
    build_weil_rep,
    conjugate_rep,
    milgram_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CuspData", "CycScalar", "DiscriminantForm",
    "DivisorExpr", "EmbeddingData", "FracQSeries", "GlueData", "GramLattice",
    "LatticeQSeries", "PrecisionError", "ProductExpansion", "WHForm",
    "WeilRepData", "WeylChamber", "borcherds_relation", "braid_holds",
    "build_weil_rep", "chamber_of", "conjugate_rep", "constant_a",
    "coset_theta", "cusp_data", "delta_series", "direct_sum",
    "discriminant_form", "divide_by_24delta", "e", "eisenstein",
    "embedding_trick", "enumerate_walls", "fourier_splitting_holds",
    "glue_lattice", "is_maximal", "isotropic_line", "j_series",
    "lattice_binomial", "milgram_sum", "modularity_pairing",
    "overlattice_witness", "product_expand", "pullback", "pullback_expr",
    "reduce_f0", "relation_ideal", "representation_count", "short_vectors",
    "sqrt_positive_int", "theta_series", "vectors_below",
]
