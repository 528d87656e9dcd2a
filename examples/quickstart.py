"""Quickstart: the same vector search on both database architectures.

Loads a synthetic SIFT-like dataset, answers the same top-10 query with

1. the **specialized** engine (Faiss-like, in-memory arrays + SGEMM), and
2. the **generalized** engine (PASE on the pgsim relational engine,
   driven through SQL),

then verifies the answers agree and prints how long each took — a
one-screen version of the paper's whole experiment.

Run:  python examples/quickstart.py
"""

import time

from repro.common.datasets import load_dataset
from repro.core.study import GeneralizedVectorDB
from repro.specialized import IVFFlatIndex


def main() -> None:
    print("Generating a synthetic SIFT-like dataset (scaled-down SIFT1M)...")
    dataset = load_dataset("sift1m", scale=2e-3)
    query = dataset.queries[0]
    truth = dataset.ground_truth(10)[0].tolist()
    print(f"  {dataset.n} vectors, {dataset.dim} dims, exact top-10 = {truth[:5]}...\n")

    # --- specialized engine (Faiss-like) -----------------------------
    spec = IVFFlatIndex(dataset.dim, n_clusters=45, sample_ratio=0.2, seed=7)
    start = time.perf_counter()
    spec.train(dataset.base)
    spec.add(dataset.base)
    build_spec = time.perf_counter() - start
    start = time.perf_counter()
    spec_result = spec.search(query, 10, nprobe=12)
    search_spec = time.perf_counter() - start
    print(f"specialized engine: build {build_spec * 1e3:.0f}ms, "
          f"search {search_spec * 1e3:.2f}ms -> {spec_result.ids[:5]}...")

    # --- generalized engine (PASE on pgsim, via SQL) ------------------
    gen = GeneralizedVectorDB()
    gen.load(dataset.base)
    start = time.perf_counter()
    gen.db.execute(
        "CREATE INDEX vec_idx ON vectors USING pase_ivfflat (vec) "
        "WITH (clusters = 45, sample_ratio = 0.2, seed = 7)"
    )
    build_gen = time.perf_counter() - start
    gen.am = gen.db.catalog.find_index("vec_idx").am
    gen.db.execute("SET pase.nprobe = 12")
    vector_literal = ",".join(f"{x:.6f}" for x in query)
    sql = (
        f"SELECT id FROM vectors "
        f"ORDER BY vec <-> '{vector_literal}'::PASE ASC LIMIT 10"
    )
    print("\nSQL executed on the generalized engine:")
    print(f"  {sql[:74]}...")
    print("  plan: " + gen.db.explain(sql).splitlines()[-1].strip())
    start = time.perf_counter()
    rows = gen.db.query(sql)
    search_gen = time.perf_counter() - start
    gen_ids = [r[0] for r in rows]
    print(f"generalized engine: build {build_gen * 1e3:.0f}ms, "
          f"search {search_gen * 1e3:.2f}ms -> {gen_ids[:5]}...\n")

    # --- the paper's point --------------------------------------------
    overlap = len(set(spec_result.ids) & set(gen_ids))
    print(f"result overlap between engines: {overlap}/10 "
          "(same algorithm, different substrate)")
    print(f"build gap:  generalized / specialized = {build_gen / build_spec:.1f}x")
    print(f"search gap: generalized / specialized = {search_gen / search_spec:.1f}x")
    print("\nEvery factor behind those gaps is an implementation issue —")
    print("run examples/root_cause_tour.py to see each one isolated.")


if __name__ == "__main__":
    main()
