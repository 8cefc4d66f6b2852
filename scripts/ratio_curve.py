#!/usr/bin/env python3
"""Write the conditional entropy-ratio curve to CSV (and PNG when matplotlib is around).

The curve H([v^2, 2v(1-v), (1-v)^2]) / (2v(1-v)) has its unique minimum of
3 bits at v = 1/2, which ``minimize_entropy_ratio`` proves; the point is marked.
"""

from latcomm import minimize_entropy_ratio
from latcomm.cli import emit_plot_data

CSV_PATH = "ratio_curve.csv"
PNG_PATH = "ratio_curve.png"


def main() -> None:
    text = emit_plot_data("ratio-curve", resolution=512)
    with open(CSV_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    v_star, value = minimize_entropy_ratio()
    print(f"wrote {CSV_PATH}; minimum {value:.12f} bits at v = {v_star:.9f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the PNG")
        return
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    vs = [float(a) for a, _ in rows]
    ys = [float(b) for _, b in rows]
    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.plot(vs, ys, lw=1.5)
    ax.plot([v_star], [value], "o", ms=5)
    ax.set_xlabel("v")
    ax.set_ylabel("conditional entropy ratio (bits)")
    ax.set_ylim(2.8, 6)
    fig.tight_layout()
    fig.savefig(PNG_PATH, dpi=150)
    print(f"wrote {PNG_PATH}")


if __name__ == "__main__":
    main()
