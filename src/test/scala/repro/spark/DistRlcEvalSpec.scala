package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.baseline.{BruteForce, Nfa, NfaBfs}
import repro.core.{LabelSeq, QueryGen}
import repro.graph.LabeledGraph

/** Distributed iterative-join evaluation of RLC query batches, verified
  * against (a) the independent single-node evaluators and (b) DuckDB running
  * the equivalent recursive CTE over the product graph.
  */
class DistRlcEvalSpec extends SparkSpec {

  private val recursiveSql =
    """WITH RECURSIVE reach(qid, v, st) AS (
      |  SELECT q.qid, e.dst, tr.nst
      |  FROM queries q
      |  JOIN transitions tr ON tr.qid = q.qid AND tr.st = q.start
      |  JOIN edges e ON e.src = q.s AND e.label = tr.label
      |  UNION
      |  SELECT r.qid, e.dst, tr.nst
      |  FROM reach r
      |  JOIN transitions tr ON tr.qid = r.qid AND tr.st = r.st
      |  JOIN edges e ON e.src = r.v AND e.label = tr.label
      |)
      |SELECT q.qid AS qid,
      |       CASE WHEN EXISTS (SELECT 1 FROM reach r
      |                         JOIN accepts a ON a.qid = r.qid AND a.ast = r.st
      |                         WHERE r.qid = q.qid AND r.v = q.t)
      |            THEN 'true' ELSE 'false' END AS answer
      |FROM queries q
      |""".stripMargin

  private def plus(g: LabeledGraph, qs: Seq[QueryGen.RlcQuery]): Seq[(Int, Int, Nfa)] =
    qs.map(q => (q.s, q.t, Nfa.kleenePlus(q.mr, g.numLabels)))

  private def answers(g: LabeledGraph, batch: Seq[(Int, Int, Nfa)]): Map[Int, Boolean] =
    DistRlcEval.evaluateNfaBatch(spark, g.toDF(spark), batch)
      .collect().map(r => r.getInt(0) -> r.getBoolean(1)).toMap

  test("batch evaluation matches brute force and the DuckDB recursive CTE") {
    val g = TestGraphs.random(21, n = 25, e = 80, labels = 3)
    val trues  = QueryGen.trueQueries(g, 8, len = 2, seed = 5)
    val falses = QueryGen.falseQueries(g, 8, len = 2, seed = 6)
    val ones   = QueryGen.trueQueries(g, 4, len = 1, seed = 7)
    val rlc    = trues ++ falses ++ ones
    // one satisfiable a+∘b+ query (Q4), so the oracle covers concatPlus too
    val ab = Nfa.concatPlus(0, 1, g.numLabels)
    val q4 = (for (s <- 0 until g.numVertices; t <- 0 until g.numVertices) yield (s, t, ab))
      .find { case (s, t, nfa) => NfaBfs.bfs(g, s, t, nfa).get }.get
    val batch = plus(g, rlc) :+ q4

    val edges = g.toDF(spark).cache()
    val result = DistRlcEval.evaluateNfaBatch(spark, edges, batch).cache()

    // vs brute force (L+) and NFA-guided BFS (a+∘b+)
    val got = result.collect().map(r => r.getInt(0) -> r.getBoolean(1)).toMap
    rlc.zipWithIndex.foreach { case (q, i) =>
      assert(got(i) == BruteForce.reach(g, q.s, q.t, q.mr), s"qid=$i $q")
    }
    assert(got(rlc.size), s"a+∘b+ query $q4")

    // vs DuckDB recursive CTE over the same tables
    val (qdf, tdf, adf) = DistRlcEval.nfaTables(spark, batch)
    Oracle.assertEquivalent(
      result.select(col("qid"), col("answer").cast("string").as("answer")),
      recursiveSql,
      "edges" -> edges, "queries" -> qdf, "transitions" -> tdf, "accepts" -> adf)
  }

  test("constraints of length 3 evaluate correctly") {
    val g = TestGraphs.random(31, n = 20, e = 70, labels = 3)
    val batch = QueryGen.trueQueries(g, 5, len = 3, seed = 1) ++
                QueryGen.falseQueries(g, 5, len = 3, seed = 2)
    val got = answers(g, plus(g, batch))
    batch.zipWithIndex.foreach { case (q, i) =>
      assert(got(i) == q.answer, s"qid=$i $q")
    }
  }

  test("generic NFA batch evaluation matches single-node traversals (L+ and a+b+)") {
    import java.util.SplittableRandom
    val g = TestGraphs.random(51, n = 22, e = 75, labels = 3)
    val rng = new SplittableRandom(8)
    val batch: Seq[(Int, Int, Nfa)] = (1 to 14).map { i =>
      val s = rng.nextInt(g.numVertices); val t = rng.nextInt(g.numVertices)
      if (i % 2 == 0) {
        val a = rng.nextInt(3); var b = rng.nextInt(3); while (b == a) b = rng.nextInt(3)
        (s, t, Nfa.concatPlus(a, b, 3))
      } else {
        val a = rng.nextInt(3); var b = rng.nextInt(3); while (b == a) b = rng.nextInt(3)
        (s, t, Nfa.kleenePlus(LabelSeq.encode(a, b), 3))
      }
    }
    val got = answers(g, batch)
    batch.zipWithIndex.foreach { case ((s, t, nfa), i) =>
      assert(got(i) == NfaBfs.bfs(g, s, t, nfa).get, s"qid=$i s=$s t=$t")
    }
  }

  test("a query whose source has no matching first label is false") {
    val g = TestGraphs.random(41, n = 10, e = 20, labels = 2)
    // vertex with no out-edges at all: add an isolated-ish query via brute force cross-check
    val batch = Seq(
      QueryGen.RlcQuery(0, 0, LabelSeq.encode(0), answer = false),
      QueryGen.RlcQuery(3, 7, LabelSeq.encode(1), answer = false),
    )
    val got = answers(g, plus(g, batch))
    batch.zipWithIndex.foreach { case (q, i) =>
      assert(got(i) == BruteForce.reach(g, q.s, q.t, q.mr), s"qid=$i")
    }
  }
}
