"""zrk: exact-arithmetic simplicial geometry and Z-retract certification.

Rational polyhedra in the unit cube are handled with exact rational
coordinates throughout: regularity and strong-regularity tests, stellar
subdivision and common refinement, collapsibility search with replayable
certificates, Z-map verification, and a certifier for the Z-retract
property built on the three checkable conditions (contractibility via
collapsibility, a cube vertex in the polyhedron, strong regularity).
"""

from .complexes import (AbsComplex, GeoComplex, GeoSimplex, RPoint,
                        WeightedComplex, from_maximal, realize, rpoint,
                        skeleton, standard_cube)
from .collapse import (CollapseSequence, CollapseStep, find_collapse_sequence,
                       free_faces, replay)
from .exactnum import (IntMat, Rat, extends_to_basis, format_rat,
                       invariant_factors, lcd, parse_rat)
from .regular import (coprime_point, den, desingularize, desingularize_relative,
                      is_regular, is_strongly_regular, is_strongly_regular_polyhedron,
                      is_strongly_regular_simplex)
from .subdivide import (common_refinement, is_subdivision, refine_for_map,
                        restrict, stellar)
from .zmaps import (PLMap, RetractVerdict, certify_main, compose,
                    fixes_pointwise, identity_map, is_zmap, part2_reduce,
                    pipeline_dh, verify_section_retraction, verify_zretract)

__version__ = "0.1.0"
