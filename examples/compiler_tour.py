"""A tour of the IFAQ compilation pipeline, stage by stage.

Prints the linear-regression program at every layer of Figure 3:

1. the D-IFAQ source (what a data scientist writes),
2. after high-level optimizations (covar matrix memoized + hoisted),
3. after schema specialization (S-IFAQ: records, static accesses),
4. the residual program after aggregate extraction (no Q anywhere),
5. the extracted aggregate batch and its join tree,
6. the generated kernel source (Python here; C++ with backend="cpp"),
7. the residual generated as a Python function (what runs the BGD loop;
   its θ is checked against the reference interpreter's).

Run:  python examples/compiler_tour.py
"""

from repro.compiler import AGGS_VAR, IFAQCompiler
from repro.data import star_schema
from repro.interp import Interpreter
from repro.ir.pretty import pretty_program
from repro.ml.programs import linear_regression_bgd
from repro.runtime.values import RecordValue


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    ds = star_schema(n_facts=500, n_dims=2, dim_size=12, attrs_per_dim=1, seed=1)
    program = linear_regression_bgd(
        ds.db.schema(), ds.query, ds.features, ds.label, iterations=10, alpha=0.05
    )

    banner("1. D-IFAQ source program (dynamically typed)")
    print(pretty_program(program))

    compiler = IFAQCompiler(db=ds.db, query=ds.query, backend="python")
    artifacts = compiler.compile(program)

    banner("2. After high-level optimizations (Section 4.1)")
    print(pretty_program(artifacts.optimized))

    banner("3. After schema specialization → S-IFAQ (Section 4.2)")
    print(pretty_program(artifacts.specialized)[:2500])
    print(f"\n  static state type: {artifacts.state_type!r}")

    banner("4. Residual program after aggregate extraction (Section 4.3)")
    print(pretty_program(artifacts.residual))

    banner("5. Extracted aggregate batch + join tree")
    for spec in artifacts.batch:
        print(f"  {spec.name:<24s} {spec!r}")
    print("\njoin tree:")
    print(artifacts.join_tree.pretty())

    banner("6. Generated kernel (Section 4.4 data layouts)")
    print(artifacts.kernel_source[:2200])

    banner("7. Residual generated as a Python function")
    print(artifacts.residual_fn.source[:2200])

    banner("Result")
    state = compiler.run_artifacts(artifacts)
    theta = state["theta"]
    print("θ =", {k: round(theta[k], 4) for k in theta.field_names()})

    env = {AGGS_VAR: RecordValue(compiler.compute_batch(artifacts))}
    interpreted = Interpreter(env).run_program(artifacts.residual)
    assert state == interpreted, "generated residual and interpreter disagree"
    print("θ equals the interpreter's, bit for bit")


if __name__ == "__main__":
    main()
