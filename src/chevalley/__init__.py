"""Exact-arithmetic toolkit for split classical groups.

Constructs the Chevalley-style generators of Sp(2n,R) and SL(2n,K),
verifies their generating relations and conjugation identities as exact
matrix statements (rational-grid and Laurent-symbolic regimes), analyzes
Lyapunov hyperplane arrangements for genericity and stability, decides
Steinberg-symbol consequences over finite universes, and reduces cycle
words to the trivial word with replayable, stability-tagged traces.
"""

from .arrangements import (Plane, find_stable_element, is_generic,
                           lyapunov_hyperplanes, weyl_chambers)
from .cycles import (ElementaryLetter, RestrictedSystem, StandardSystem, Word,
                     bracket_decompose, enumerate_bracket_decompositions,
                     is_stable_word, reduce_cycle)
from .generators import (GeneratorLetter, GroupModel, MonomialForm, gen_f,
                         gen_h, gen_w, gen_x)
from .matrices import (ExactMatrix, check_membership, exp_nilpotent, mat_inv,
                       mat_mul)
from .relations import (DEFAULT_GRID, decompose_commutator,
                        fit_structure_functions, run_suite, verify_additivity,
                        verify_commutator)
from .roots import (CartanVector, Root, RootSystem, build_root_system,
                    positive_combinations, standard_sl_roots)
from .scalars import GaussianRational, LaurentFrac, parse_scalar
from .symbols import (SymbolExpr, build_axiom_lattice, is_consequence,
                      replay_certificate)

__version__ = "0.1.0"
