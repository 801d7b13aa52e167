"""The convex-set toolbox under the solvers.

Support functions, recession and polar cones, the projection onto the span
of price increments, and the closedness of a set's projected image;
everything exact on rational inputs.
"""

from fractions import Fraction

from condual import (
    Box,
    Polyhedron,
    polar_cone,
    predictable_range_projection,
    projected_set_closed,
    recession_cone,
    support_function,
)

F = Fraction


def main():
    print("== support functions ==")
    box = Box((F(-1), F(-1)), (F(1), F(1)))
    print(f"box [-1,1]^2 against (3, -4): {support_function(box, (F(3), F(-4)))}")
    halfline = Box((float('-inf'),), (F(1),))
    print(f"half-line (-inf, 1] against +1: {support_function(halfline, (F(1),))}")
    print(f"half-line (-inf, 1] against -1: {support_function(halfline, (F(-1),))}")

    print("\n== recession and polar cones ==")
    wedge = Polyhedron(((F(-1), F(0)), (F(1), F(-1))), (F(0), F(2)))
    rec = recession_cone(wedge)
    print(f"wedge recession rows: {rec.rows}")
    polar = polar_cone(rec)
    print(f"its polar is generated by the same rows: {polar.rows}")
    roundtrip = polar_cone(polar_cone(rec.canonical())).canonical()
    print(f"polar of polar returns the cone: {roundtrip.rows == rec.canonical().rows}")

    print("\n== span projections ==")
    P = predictable_range_projection([(F(1), F(2)), (F(2), F(4))])
    print(f"increments (1,2) and (2,4) span a line; projection matrix:")
    for row in P.matrix:
        print(f"  {row}")
    print(f"rank {P.rank}; holdings (3,1) and (5,0) differ by a null direction:")
    print(f"  projected difference = {P.apply((F(-2), F(1)))}")
    verdict, reason = projected_set_closed(wedge)
    print(f"projected wedge closed? {verdict} ({reason})")


if __name__ == "__main__":
    main()
