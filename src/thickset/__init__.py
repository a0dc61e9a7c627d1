"""Certified computations on thick compact sets.

Exact rational and interval arithmetic throughout: thickness values of
self-similar sets come out as exact rationals, configuration witnesses as
shrinking enclosures with certified residual bounds, and infeasibility
verdicts as exhaustive interval-search certificates.
"""

from .scalars import (
    Interval,
    Q,
    decimal_approx,
    decimal_str,
    interval_atan,
    interval_ln,
    interval_sqrt,
    sqrt3,
    to_q,
)
from .cantor import (
    AffineMap,
    GapRecord,
    IfsSet1D,
    MembershipResult,
    ThicknessReport,
    affine_image,
    difference_interval,
    ifs_from_branches,
    membership,
    middle_cantor,
    middle_thirds,
    newhouse_thickness,
    off_center_cantor,
)
from .patterns1d import (
    KapCertificate,
    Witness1D,
    find_3ap,
    find_convex_combo,
    gap_lemma_check,
    kap_search,
    shmerkin_4ap,
)
from .product import (
    NormalizedTriangle,
    ProductWitness,
    Triangle,
    difference_hit,
    equilateral,
    find_triangle_in_product,
    normalize_triangle,
)
from .balls import (
    Ball,
    BallSystem,
    ExplicitTree,
    GridIfs,
    HexPacking,
    ThicknessReportNd,
    gap_lemma_rd_check,
    grid_ifs_example,
    h_upper,
    hex_packing_example,
    r_uniformity_check,
    subset_thickness,
    yavicoli_thickness,
)
from .patterns_nd import (
    Disk,
    WitnessNd,
    convex_combo_disk,
    find_convex_combo_nd,
    find_triangle_nd,
    lambda_window,
    threshold,
    triangle_disk,
)
from .errors import HypothesisError, Indeterminate, InputError, ThicksetError

__version__ = "0.1.0"
