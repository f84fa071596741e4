"""Exact computation in the first Weyl algebra over the rationals.

Normal-ordered arithmetic, the symbol identification with K[X,Y] and its
Poisson structure, Newton-polygon geometry, symplectic generator words,
and a certificate-producing analyzer for the question "does this
commutator-1 pair generate the whole algebra?".
"""

from .bipoly import (BiPoly, Direction, HomogDecomp, as_direction, homog_decomp,
                     is_homogeneous, leading_form, mth_root, power_decomposition,
                     v_deg)
from .errors import (InvariantViolation, NotAWeylPairError, ParseError, ReplayError,
                     ResourceLimitError, WeylkitError)
from .poisson import (CommutingPairClass, FuGvCheck, PairKind, bracket_degree_bound,
                      centralizer_generator, classify_commuting_pair,
                      cone_containment_check, lemma_fu_gv_check, poisson_bracket,
                      poisson_bracket_via_jacobian)
from .weyl import (BracketCase, DixmierLeadingReport, GradedDecomp, WeylElement,
                   centralizer_counterexamples, commutator, dixmier_leading_check,
                   grade, graded_decomp, in_D_geq, in_D_leq, is_weyl_pair,
                   leading_form_weyl, phi, phi_inv, shift_identity_check, v_deg_weyl,
                   weyl_mul)
from .geometry import (ConeSector, HalfQuadrantEquiv, LatticePolygon, RoofChain,
                       cone_of, convex_hull, grading_geometry_equiv,
                       grading_geometry_equiv_lower, ntp, roof)
from .transforms import (Linear, PairSwap, Rot90, Scale, TriLower, TriUpper, Word,
                         WordToken, apply_aut, apply_poisson_aut, apply_to_pair,
                         apply_to_poly_pair, jacobian_det, parse_word, word_to_string)
from .analysis import (AttemptRecord, Certificate, DCReport, OmegaCase, OmegaClass,
                       Outcome, ReduceStep, WordStep, criterion_D_ge_minus1,
                       criterion_cf_kf, criterion_grading, criterion_homogeneous,
                       criterion_leading_bracket, criterion_support,
                       criterion_two_homogeneous, criterion_v01, dc_check,
                       omega_classify, replay_certificate)
from .exprparse import parse_element

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
