package repro.graph

import repro.{Oracle, SparkSpec, TestGraphs}

/** Table III statistics: hand-computed tiny cases plus DuckDB-oracle
  * verification of the loop/triangle DataFrame jobs on random graphs.
  */
class GraphStatsSpec extends SparkSpec {

  private val triangleSql =
    """WITH de AS (
      |  SELECT DISTINCT src, dst FROM edges WHERE src <> dst
      |)
      |SELECT COUNT(*) AS triangles
      |FROM de e1
      |JOIN de e2 ON e2.src = e1.dst
      |JOIN de e3 ON e3.src = e2.dst AND e3.dst = e1.src
      |WHERE CAST(e1.src AS INT) < CAST(e2.src AS INT)
      |  AND CAST(e1.src AS INT) < CAST(e3.src AS INT)
      |""".stripMargin

  private val loopSql = "SELECT COUNT(*) AS loops FROM edges WHERE src = dst"

  test("hand case: one directed 3-cycle counted once, loops counted") {
    val g = LabeledGraph.fromEdges(4, 2, Array(
      (0, 0, 1), (1, 1, 2), (2, 0, 0), // 3-cycle
      (0, 1, 2),                       // chord, no extra cycle
      (3, 0, 3), (3, 1, 3),            // two self loops
    ))
    val s = GraphStats.compute(spark, g)
    assert(s.v == 4)
    assert(s.e == 6)
    assert(s.labels == 2)
    assert(s.loops == 2)
    assert(s.triangles == 1)
  }

  test("hand case: a 3-cycle in both orientations counts twice") {
    val g = LabeledGraph.fromEdges(3, 1, Array(
      (0, 0, 1), (1, 0, 2), (2, 0, 0),
      (1, 0, 0), (2, 0, 1), (0, 0, 2),
    ))
    assert(GraphStats.compute(spark, g).triangles == 2)
  }

  test("parallel labels do not double-count triangles") {
    val g = LabeledGraph.fromEdges(3, 2, Array(
      (0, 0, 1), (0, 1, 1), (1, 0, 2), (2, 0, 0),
    ))
    assert(GraphStats.compute(spark, g).triangles == 1)
  }

  for (seed <- 1 to 5)
    test(s"DuckDB oracle agrees on triangles and loops, random graph seed=$seed") {
      val g = TestGraphs.random(seed, n = 40, e = 200, labels = 3, loopShare = 0.08)
      val edges = g.toDF(spark)
      Oracle.assertEquivalent(GraphStatsRef.trianglesDF(edges), triangleSql, "edges" -> edges)
      Oracle.assertEquivalent(GraphStats.trianglesDFOrdered(edges), triangleSql, "edges" -> edges)
      Oracle.assertEquivalent(GraphStats.loopsDF(edges), loopSql, "edges" -> edges)
    }

  for (seed <- 11 to 13)
    test(s"ordered and naive triangle counts agree on skewed graphs, seed=$seed") {
      val g = TestGraphs.smallBa(seed, n = 150, e = 900, labels = 3)
      val edges = g.toDF(spark)
      val a = GraphStatsRef.trianglesDF(edges).collect()(0).getLong(0)
      val b = GraphStats.trianglesDFOrdered(edges).collect()(0).getLong(0)
      assert(a == b, s"naive=$a ordered=$b")
    }

  test("stats of a lite config are self-consistent") {
    val g = GraphGen.er(2000, 8000, 8, 17)
    val s = GraphStats.compute(spark, g)
    assert(s.v == 2000)
    assert(s.e == g.numEdges)
    assert(s.labels <= 8)
    assert(s.loops == 0)
  }
}
