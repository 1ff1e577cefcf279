"""bsrig: exact computation in Baumslag-Solitar groups BS(n, m).

The package decides the word problem through unique right-pushed normal
forms, computes the coset index profile (l, r, L) of the almost normal
subgroup <a>, works with double cosets and their convolution algebra,
classifies tree actions on the Bass-Serre tree, performs the exact fusion
bookkeeping of coset and character bimodule labels, and reports
isomorphism and crossed-product obstruction verdicts with machine-checked
certificates.
"""

from .words import (
    BsPresentation,
    GroupWord,
    NormalForm,
    WordSyntaxError,
    IDENTITY,
    a_power,
    abelianization_image,
    b_length,
    b_letter,
    bs,
    conjugated_by,
    cyclically_reduce,
    format_word,
    invert,
    is_identity,
    multiply,
    normalize,
    parse_word,
    power,
    to_group_word,
    word_nf,
)
from .hecke import (
    CosetProfile,
    DoubleCoset,
    HeckeElement,
    amalgam_embed,
    centralizes,
    coset_profile,
    double_coset,
    f_set,
    f_set_member,
    hecke_convolve,
    hecke_unit,
    qc_member,
    same_double_coset,
)
from .tree import (
    Elliptic,
    Hyperbolic,
    TreeEdge,
    TreeVertex,
    base_vertex,
    classify,
    common_fixed_vertex,
    edge_of,
    edge_range,
    edge_source,
    export_ball,
    fixes_vertex,
    vertex_distance,
    vertex_neighbors,
    vertex_of,
)
from .fusion import (
    ONE,
    BimoduleSum,
    Irreducible,
    RootOfUnity,
    char_of,
    char_product,
    decompose_self_inverse,
    enumerate_omega,
    exchange_partners,
    isomorphic,
    omega_member,
)
from .rigidity import (
    ABS_M_MISMATCH,
    N_MISMATCH,
    NO_OBSTRUCTION,
    SIGN_MISMATCH,
    RigidityVerdict,
    SignWitness,
    canonicalize,
    crossed_product_obstruction,
    is_amenable,
    is_isomorphic,
    recover_parameters,
    sign_witness,
)

__version__ = "0.1.0"
