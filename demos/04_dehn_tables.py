#!/usr/bin/env python3
# Dehn-function tables: the maximum area over all relations of length <= n.
# One table per group, computed at the largest radius; every smaller
# radius is read off it with .at(n).

from markedgroups import Caps, build_oracle, dehn, parse_presentation

caps = Caps(length_cap=14, node_cap=10**6)

print("delta(n) for Z/i = <a | a^i>, which equals floor(n/i):")
print("n:      ", list(range(11)))
for i in (3, 4, 5):
    pres = parse_presentation(f"gens: a\nrels: a^{i}")
    oracle = build_oracle(f"abelian:{i}", pres)
    table = dehn(pres, oracle, 10, caps)
    print(f"delta_{i}:", [table.at(n).value for n in range(11)])
print()

z2 = parse_presentation("gens: x y\nrels: [x,y]")
value = dehn(z2, build_oracle("abelian:0,0", z2), 4, caps).at(4)
print("Z^2 at n=4: delta =", value.value)
print("witnesses:", [z2.word_str(w) for w in value.witnesses])
