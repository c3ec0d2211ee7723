"""Discharging a one-minus matrix into a permutation matrix plus bookkeeping.

Walks the displacement steps on the neutral 12x12 example, where the
procedure reduces to erasing two entries and shifting one cell, then
shows the full 4-tuple encoding and its inverse.

Run:  python demos/02_discharge.py
"""

from asmc import (
    Region,
    apply_in_region,
    discharge,
    geometry,
    h_shift,
    matrix_to_text,
    pair_from_table,
    partial_discharge,
    perm_one_line,
    recharge,
    table_from_text,
    validate_asm,
)

neutral = pair_from_table(table_from_text("10; 0 0 2 2 0 0 1 5 0 3 6 6; 4 5")).matrix
n = neutral.n
g = geometry(neutral)

print("Start from the neutral matrix:\n")
print(matrix_to_text(neutral))

print("Step 1: erase the -1 and the closing 1 (the right 1 of its row).")
grid = [list(row) for row in neutral.rows]
grid[g.closing_row - 1][g.opening_col - 1] = 0
grid[g.closing_row - 1][g.closing_col - 1] = 0

print("Step 2: shift the extended closing cell one slot to the right")
print(f"        (rows {g.closing_row + 1}..{n}, columns {g.opening_col}..{g.closing_col}):\n")
region = Region(g.closing_row + 1, n, g.opening_col, g.closing_col)
shifted = apply_in_region(grid, region, h_shift)
print(matrix_to_text(validate_asm(shifted)))

print("On a neutral matrix the two remaining steps cancel, so this already")
print("is the discharged permutation matrix:")
print(f"  library result agrees: {validate_asm(shifted) == partial_discharge(neutral)}\n")

t = discharge(neutral)
print("The full encoding keeps the opening row and the two sums:")
print(f"  k={t.opening_row}  c={t.closing_sum}  E={t.charge}")
print(f"  permutation (column of each row's 1): {perm_one_line(t.perm)}\n")

print("Recharging reverses every step:")
print(f"  recharge(discharge(N)) == N: {recharge(t) == neutral}")
