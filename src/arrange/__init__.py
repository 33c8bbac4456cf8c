"""Exact spectral-sequence engine for arrangement complements.

Builds intersection posets of admissible arrangements of smooth
subvarieties, computes boundary stalks of the derived pushforward by
deletion/restriction, decomposes them into constant sheaves, assembles the
weighted second page, applies the single differential of the
Orlik-Solomon model on projective hyperplane and configuration models, and
extracts weight-graded Betti numbers, with independent combinatorial
oracles for cross-checking.
"""

from .errors import ArrangeError, NotAdmissible, NotRankOne
from .linalg import (CompositionNonzero, RationalMatrix, ShapeMismatch,
                     homology_dim)
from .models import (ArrangementModel, MissingBetti, MonReport,
                     abstract_model, check_mon, configuration_model,
                     hyperplane_model, os_oracle)
from .polys import IntPoly
from .poset import (AdmissibilityReport, DuplicateMember, EmptyInput,
                    EmptyRestriction, Flat, IntersectionPoset, LastMember,
                    Member)
from .projective import ProjProduct, pushforward
from .spectral import (FeasibilityResult, Infeasible, MalformedCell,
                       MissingStratumData, NotComposable, RunResult,
                       SpectralPage, WeightedCell, assemble_e2,
                       build_differential, feasibility, run,
                       skew_row_homology)
from .stalks import (PointwiseReport, RecursionDepthExceeded, Summand,
                     decompose, stalk_tables, verify_pointwise)

__version__ = "0.1.0"
