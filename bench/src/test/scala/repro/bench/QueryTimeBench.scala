package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.graph.GraphGen

/** Fig. 3-flavored supplement: per-set execution time of true/false query
  * sets — RLC index vs online BFS vs BiBFS (the paper's up-to-six-orders
  * headline). Figures are out of scope; this backs the claim behind
  * Table V's speed-ups with set-level numbers like the paper's Fig. 3.
  *
  * Subset via REPRO_GRAPHS=AD,TW,... (default: AD,TW,WN).
  */
class QueryTimeBench extends SparkSpec {

  test("query-set execution time: RLC vs BFS vs BiBFS") {
    val names = sys.env.getOrElse("REPRO_GRAPHS", "AD,TW,WN").split(",").map(_.trim).toSeq
    val rows = Experiments.queryTime(spark, names.map(GraphGen.lite))
    println(Experiments.renderQT(rows))

    rows.foreach { r =>
      val rlc = r.rlcTrue + r.rlcFalse
      val bfs = r.bfsTrue + r.bfsFalse
      val bibfs = r.bibfsTrue + r.bibfsFalse
      assert(rlc < bfs, s"${r.name}: RLC must beat BFS ($rlc vs $bfs)")
      assert(rlc < bibfs, s"${r.name}: RLC must beat BiBFS ($rlc vs $bibfs)")
      assert(bfs / rlc > 100, s"${r.name}: expected orders-of-magnitude gap, got ${bfs / rlc}x")
    }
  }
}
