#!/usr/bin/env python3
# Relation balls and the distance e^(-Lambda) between marked groups.
#
# Z/5 and Z marked by one generator agree on every relation of length
# up to 4 and are separated by x^5, so their distance is exactly e^-4.

from markedgroups import build_oracle, distance, parse_presentation, rel_ball

z5 = parse_presentation("gens: x\nrels: x^5")
z = parse_presentation("gens: x\nrels:")
o5 = build_oracle("abelian:5", z5)
oz = build_oracle("free", z)

ball = rel_ball(z5, o5, 5)
print("relations of Z/5 up to length 5:", ball.to_json(z5)["members"])
print("d(Z/5, Z):", distance(z5, o5, z, oz, 10))
z7 = parse_presentation("gens: x\nrels: x^7")
print("d(Z/5, Z/7):", distance(z5, o5, z7, build_oracle("abelian:7", z7), 10))
print()

# a marked group is not the same after permuting its generators: the
# relation x^2 moves to the other coordinate
p1 = parse_presentation("gens: x y\nrels: x^2")
p2 = parse_presentation("gens: y x\nrels: x^2")
d = distance(p1, build_oracle("abelian:2,0", p1), p2, build_oracle("abelian:0,2", p2), 6)
print("d(Z/2 x Z, Z x Z/2) with swapped marking:", d)
