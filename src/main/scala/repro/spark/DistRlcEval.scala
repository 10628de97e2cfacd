package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baseline.Nfa

/** Distributed online evaluation of RLC query batches as iterative
  * DataFrame joins over a label-partitioned edge table — the product-graph
  * BFS expressed as dataflow (the "answer RLC queries with iterative joins"
  * half of the reproduction hint, and the SysA engine stand-in of Table V).
  *
  * Each query carries its own automaton: `Nfa.kleenePlus` for `L^+`
  * (Q1–Q3) and `Nfa.concatPlus` for `a^+ ∘ b^+` (Q4), so one dataflow
  * covers every query class. State relation: `(qid, v, st)`; the seed is
  * the one-step expansion from each query's source and start state; each
  * round joins the frontier with the per-query transition table and the
  * edge table, semi-naive style (only newly discovered states expand).
  * Lineage is cut with eager local checkpoints.
  */
object DistRlcEval {

  /** DataFrames encoding a batch of `(s, t, nfa)` queries:
    * queries(qid, s, t, start), transitions(qid, st, label, nst) and
    * accepts(qid, ast).
    */
  def nfaTables(spark: SparkSession,
                queries: Seq[(Int, Int, Nfa)]): (DataFrame, DataFrame, DataFrame) = {
    import spark.implicits._
    val indexed = queries.zipWithIndex
    val q = spark.createDataset(indexed.map { case ((s, t, nfa), i) =>
      (i, s, t, nfa.start)
    }).toDF("qid", "s", "t", "start")

    val trans = spark.createDataset(indexed.flatMap { case ((_, _, nfa), i) =>
      for {
        st <- 0 until nfa.numStates
        l  <- nfa.trans(st).indices
        if nfa.trans(st)(l) >= 0
      } yield (i, st, l, nfa.trans(st)(l))
    }).toDF("qid", "st", "label", "nst")

    val accepts = spark.createDataset(indexed.flatMap { case ((_, _, nfa), i) =>
      nfa.acceptStates.map(a => (i, a))
    }).toDF("qid", "ast")
    (q, trans, accepts)
  }

  /** Evaluate a batch of `(s, t, nfa)` queries; returns (qid, answer), qid
    * being the query's position in `queries`.
    */
  def evaluateNfaBatch(spark: SparkSession, edges: DataFrame,
                       queries: Seq[(Int, Int, Nfa)], maxIters: Int = 100_000,
                       budgetMs: Long = -1L): DataFrame = {
    val deadline = if (budgetMs < 0) Long.MaxValue else System.nanoTime() + budgetMs * 1_000_000L
    val e = edges.select(col("src"), col("label"), col("dst"))
    val (q, trans, accepts) = nfaTables(spark, queries)
    q.cache(); trans.cache(); accepts.cache()

    def step(frontier: DataFrame): DataFrame =
      frontier
        .join(trans, frontier("qid") === trans("qid") && trans("st") === frontier("st"))
        .drop(trans("qid")).drop(trans("st"))
        .join(e, col("src") === col("v") && e("label") === trans("label"))
        .select(frontier("qid"), col("dst").as("v"), col("nst").as("st"))
        .distinct()

    val seed = q
      .join(trans, q("qid") === trans("qid") && trans("st") === q("start"))
      .drop(trans("qid"))
      .join(e, col("src") === col("s") && e("label") === trans("label"))
      .select(q("qid"), col("dst").as("v"), col("nst").as("st"))
      .distinct()

    var visited  = seed.localCheckpoint(true)
    var frontier = visited
    var iters    = 0
    while (frontier.count() > 0 && iters < maxIters) {
      if (System.nanoTime() > deadline)
        throw new java.util.concurrent.TimeoutException(s"budget ${budgetMs}ms exceeded after $iters iterations")
      val next = step(frontier)
        .join(visited, Seq("qid", "v", "st"), "left_anti")
        .localCheckpoint(true)
      visited = visited.union(next).localCheckpoint(true)
      frontier = next
      iters += 1
    }

    val hit = visited
      .join(q, visited("qid") === q("qid") && col("v") === col("t"))
      .join(accepts, visited("qid") === accepts("qid") && visited("st") === col("ast"))
      .select(visited("qid"))
      .distinct()
      .withColumn("answer", lit(true))

    q.select("qid").join(hit, Seq("qid"), "left_outer")
      .select(col("qid"), coalesce(col("answer"), lit(false)).as("answer"))
  }
}
