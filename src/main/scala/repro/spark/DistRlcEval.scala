package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baseline.Nfa

/** Distributed online evaluation of RLC query batches as iterative
  * DataFrame joins over a plain edge table, which the joins shuffle by
  * `(src, label)` — the product-graph BFS expressed as dataflow (the
  * "answer RLC queries with iterative joins" half of the reproduction hint,
  * and the SysA engine stand-in of Table V).
  *
  * Each query carries its own automaton: `Nfa.kleenePlus` for `L^+`
  * (Q1–Q3) and `Nfa.concatPlus` for `a^+ ∘ b^+` (Q4), so one dataflow
  * covers every query class. State relation: `(qid, v, st)`. One `step`
  * joins states with the per-query transition table and the edge table;
  * the seed is the step from each query's source and start state, and each
  * round steps the frontier, semi-naive style (only newly discovered states
  * expand). Lineage is cut with eager local checkpoints.
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
    * being the query's position in `queries`. Throws a `TimeoutException`
    * once a round starts after `budgetMs` (negative: no budget).
    */
  def evaluateNfaBatch(spark: SparkSession, edges: DataFrame,
                       queries: Seq[(Int, Int, Nfa)], budgetMs: Long = -1L): DataFrame = {
    val deadline = if (budgetMs < 0) Long.MaxValue else System.nanoTime() + budgetMs * 1_000_000L
    val e = edges.select(col("src").as("v"), col("label"), col("dst"))
    val (q, trans, accepts) = nfaTables(spark, queries)

    /** The states one edge away from `states(qid, v, st)`. */
    def step(states: DataFrame): DataFrame =
      states.join(trans, Seq("qid", "st")).join(e, Seq("v", "label"))
        .select(col("qid"), col("dst").as("v"), col("nst").as("st"))
        .distinct()

    val sources  = q.select(col("qid"), col("s").as("v"), col("start").as("st"))
    var visited  = step(sources).localCheckpoint(true)
    var frontier = visited
    var rounds   = 0
    // every round adds a new state out of a finite set, so the loop ends
    while (frontier.count() > 0) {
      if (System.nanoTime() > deadline)
        throw new java.util.concurrent.TimeoutException(s"budget ${budgetMs}ms exceeded after $rounds rounds")
      val next = step(frontier)
        .join(visited, Seq("qid", "v", "st"), "left_anti")
        .localCheckpoint(true)
      visited = visited.union(next).localCheckpoint(true)
      frontier = next
      rounds += 1
    }

    val hit = visited
      .join(q.select(col("qid"), col("t").as("v")), Seq("qid", "v"))
      .join(accepts.select(col("qid"), col("ast").as("st")), Seq("qid", "st"))
      .select("qid")
      .distinct()
      .withColumn("answer", lit(true))

    q.select("qid").join(hit, Seq("qid"), "left_outer")
      .select(col("qid"), coalesce(col("answer"), lit(false)).as("answer"))
  }
}
