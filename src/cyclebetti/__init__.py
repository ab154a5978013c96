"""Exact graded Betti numbers for powers of path ideals of cycles.

Three mutually checking routes: closed formulas, chain recursions, and a
brute-force simplicial-homology oracle for arbitrary monomial ideals.
"""

from .monomials import AmbientMismatchError, Monomial, MonomialIdeal, one, variable
from .families import (chain_pair, chain_piece, chain_tail, corner_chain_pairs, corner_ideal,
                       corner_power, cycle_path_ideal, graded_component,
                       long_path_ideal, mixed_chain_pairs, mixed_power,
                       path_generator, reduced_short_path_ideal,
                       short_path_ideal, support_envelope)
from .formulas import (binomial, long_path_betti, long_path_pd_reg,
                       reduced_power_betti, reduced_power_pd_reg, series_betti,
                       short_path_betti, short_path_betti_parts,
                       short_path_pd_reg)
from .recursion import (clear_caches, composed_support, corner_rec, corner_seq,
                        exchange_residual, long_path_rec, long_path_seq,
                        mixed_rec, mixed_seq, shift_residual, short_path_pd_rec)
from .oracle import (BettiTable, DEFAULT_LATTICE_CAP, DEFAULT_PRIME,
                     LatticeCapError, SimplicialComplex, graded_betti,
                     homology_dims, lcm_lattice, upper_koszul)
from .verify import (FamilyCase, Report, check_splitting, cross_validate,
                     run_suite, route_totals)

__version__ = "0.1.0"
