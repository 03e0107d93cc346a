"""The three panel-assignment schedules, small enough to read whole.

A schedule maps each control step i (one per discrete user position) to the
position index j the panel is configured for. Static always serves j = 0,
unbiased cycles through every j evenly, biased revisits one chosen j_c on a
fixed cadence and cycles the rest in between.
"""

from collections import Counter

from pwesim import Biased, Static, Unbiased, build_schedule

TX_STEP = 0.002


def show(label: str, mode, i_max: int, j_max: int) -> None:
    sch = build_schedule(mode, i_max, j_max, TX_STEP)
    print(f"{label:<18} {sch.assignment}")


def main() -> None:
    i_max, j_max = 11, 3
    print(f"== assignments for i = 0..{i_max}, j = 0..{j_max} ==")
    show("static", Static(), i_max, j_max)
    show("unbiased", Unbiased(), i_max, j_max)
    show("biased p=0.5 j_c=0", Biased(0.5, 0), i_max, j_max)
    show("biased p=0.5 j_c=2", Biased(0.5, 2), i_max, j_max)
    print()
    print("biased anchors j_c every delta_i = round(1/p) steps and cycles")
    print("the other positions in the gaps, so j_c gets roughly share p")

    print()
    print("== realized shares over 5000 steps, 251 positions ==")
    n = 5000
    for p in (0.1, 0.3, 0.5):
        sch = build_schedule(Biased(p, 0), n - 1, 250, TX_STEP)
        counts = Counter(sch.assignment)
        others = [counts.get(j, 0) for j in range(1, 251)]
        print(f"p = {p}: share of j_c = {counts[0] / n:.4f}, "
              f"other counts span [{min(others)}, {max(others)}]")

    print()
    print("== position counts ==")
    sch = build_schedule(Unbiased(), 999, 12, TX_STEP)
    counts = Counter(sch.assignment)
    print(f"unbiased over 1000 steps, 13 positions: counts {dict(counts)}")


if __name__ == "__main__":
    main()
