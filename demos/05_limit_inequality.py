#!/usr/bin/env python3
# The member-vs-limit Dehn inequality along a convergent family.
#
# For members G_i converging to a finitely presented limit G with
# relator lengths bounded by L, once the relation balls of G_i agree
# with the limit up to n, every quantity below is computable exactly
# and the ratio delta_i(n)/delta_i(L) is bounded by delta(n).

from markedgroups import Caps, builtin_families, corollary_check, theorem_check

family = next(f for f in builtin_families() if f.name == "zxz")
caps = Caps(length_cap=12, node_cap=10**6)

print(f"family {family.name}: members Z x Z/i converging to Z x Z (L = 4)")
print()
print("i  n  agree  d_i(n)  d(n)  K_i  d_i(L)  ratio  holds")
for n in (2, 4):
    for i in (3, 4, 5, 6):
        r = theorem_check(family, i, n, caps)
        verdicts = (r.inequality_star_ok, r.k_le_delta_L_ok, r.ratio_le_delta_ok)
        holds = "yes" if all(v is True for v in verdicts) else "informational"
        marker = holds if r.applicable else "(balls differ before n)"
        print(f"{i}  {n}  {r.ball_agreement}      {r.delta_i_n}       {r.delta_n}"
              f"     {r.K_i}    {r.delta_i_L}       {r.ratio}    {marker}")
print()

corollary = corollary_check(family, (3, 4, 5, 6), 4, caps)
print(f"uniform bound at n=4: M = max_i delta_i(L) = {corollary.M}, "
      f"delta(4) = {corollary.delta_n}")
for row in corollary.rows:
    note = "checked" if row["included"] else "excluded (balls differ before 4)"
    print(f"  i={row['i']}: delta_i(4) = {row['delta_i_n']['value']}  [{note}]")
print("all bounds hold:", corollary.all_pass)
