"""Exact computations with rook monoids and totally propagating partition algebras."""

from .scalars import XI, XiPoly, falling_factorial
from .formal import FormalSum
from .linalg import (
    CommutingFamily,
    ExactMatrix,
    commutant_dimension,
    nullspace,
    simultaneous_eigenspace,
)
from .combinat import (
    bell,
    content,
    corner_set,
    f_lambda,
    is_standard_spt,
    partitions,
    partitions_upto,
    set_partitions,
    standard_tableaux,
    stirling2,
)
from .rook import (
    RookElement,
    enumerate_rook,
    factor_to_word,
    generator,
    jm_x,
    jm_x_tilde,
    kappa,
    kappa_tilde,
    rook_mul,
)
from .diagram import (
    AlgebraElement,
    PartitionDiagram,
    compose,
    diagram_product,
    enumerate_monoid,
    from_orbit,
    is_half,
    is_totally_propagating,
    orbit_product_general,
    to_orbit,
)
from .seminormal import RookIrrep, act_p1, act_si, verify_jm_action
from .characters import chi_star, kronecker_with_defining, tensor_multiplicities
from .bratteli import GradedGraph, GraphPath, ihat, rhat, rook_tower, tableau_to_path
from .rsk import insert, path_to_spt, spt_to_path
from .tensor import TensorSpace, phi_diagram, phi_element, psi_element, psi_rook, schur_weyl_report
from .jm import (
    build_m,
    build_m_tilde,
    build_z,
    build_z_tilde,
    gt_decompose,
    verify_centrality,
    verify_operator_identity,
)
