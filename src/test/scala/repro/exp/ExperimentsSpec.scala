package repro.exp

import repro.SparkSpec
import repro.baseline.NfaBfs
import repro.graph.GraphGen.LiteConfig
import repro.graph.LabeledGraph

/** Smoke test of the table harnesses on one tiny graph, so a harness edit
  * is checked without the minutes-long bench suites. `tableIV` is left
  * out because it always prepends the ADq ETC anchor.
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

  test("tableV: every class × engine timed, SysA without timeout, rendered") {
    val (itSec, sizeMB, rows) = Experiments.tableV(spark, tiny)
    val classes = Seq("Q1", "Q2", "Q3", "Q4")
    val engines = Seq("SysA", "SysB", "SysC")
    assert(rows.map(r => (r.queryClass, r.engine)) == (for (c <- classes; e <- engines) yield (c, e)))
    rows.foreach { r =>
      assert(r.engineSec.exists(_ > 0) && r.su.isDefined && r.bep.isDefined, r)
      assert(r.rlcSec > 0, r)
    }
    val lines = Experiments.renderT5(itSec, sizeMB, rows).linesIterator.map(_.split("\\s+").toSeq).toSeq
    for (c <- classes; e <- engines)
      assert(lines.exists(_.take(2) == Seq(c, e)), s"no rendered row for $c/$e")
  }

  test("q4Queries: exactly half satisfiable, the true ones first") {
    val g = tiny.generate()
    val qs = Experiments.q4Queries(g, 20, 74)
    assert(qs.size == 20)
    val answers = qs.map(q => NfaBfs.bfs(g, q.s, q.t, q.nfa).get)
    assert(answers == Seq.fill(10)(true) ++ Seq.fill(10)(false), answers)
    assert(qs.forall(q => q.isQ4 && q.a != q.b))
  }

  test("q4Queries rejects a graph with fewer than two labels") {
    val g = LabeledGraph.fromEdges(3, 1, Array((0, 0, 1), (1, 0, 2)))
    intercept[IllegalArgumentException](Experiments.q4Queries(g, 4, 74))
  }
}
