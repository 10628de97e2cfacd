package repro.exp

import repro.SparkSpec
import repro.graph.GraphGen.LiteConfig

/** Smoke test of the table harnesses on one tiny graph, so a harness edit
  * is checked without the minutes-long bench suites. `tableIV` is left
  * out because it always prepends the ADq ETC anchor, and `tableV` because
  * its eight SysA Spark fixpoints take 18–33 s on a 4-vCPU host even on
  * graphs of 100–300 vertices.
  */
class ExperimentsSpec extends SparkSpec {

  private val tiny =
    LiteConfig("TY", "tiny BA", 300, 1_500, 4, "BA", 20, 42, "-", "-", "-", "-")

  /** Every name starts a line of the rendered table. */
  private def namesEveryRow(out: String, names: Seq[String]): Unit =
    names.foreach(n => assert(out.linesIterator.exists(_.startsWith(n)), s"no row for $n:\n$out"))

  test("tableIII: one row per graph, rendered") {
    val rows = Experiments.tableIII(spark, Seq(tiny))
    assert(rows.map(_.cfg.name) == Seq("TY"))
    assert(rows.head.v == 300 && rows.head.e > 0)
    namesEveryRow(Experiments.renderT3(rows), rows.map(_.cfg.name))
  }

  test("queryTime: one row per graph with positive set times, rendered") {
    val rows = Experiments.queryTime(spark, Seq(tiny))
    assert(rows.map(_.name) == Seq("TY"))
    rows.foreach { r =>
      assert(r.n > 0)
      assert(Seq(r.rlcTrue, r.rlcFalse, r.bfsTrue, r.bfsFalse, r.bibfsTrue, r.bibfsFalse).forall(_ > 0), r)
    }
    namesEveryRow(Experiments.renderQT(rows), rows.map(_.name))
  }
}
