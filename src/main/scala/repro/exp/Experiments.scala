package repro.exp

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.baseline.{Etc, Nfa, NfaBfs}
import repro.core._
import repro.graph.{GraphGen, GraphStats, LabeledGraph}
import repro.spark.{DistRlcEval, DistRlcIndexBuilder}

/** Harnesses reproducing the paper's evaluation tables, run by the bench
  * suites (`bench/`, one per table). Every row carries the paper's reported
  * numbers next to ours; progress lines go to stdout.
  */
object Experiments {

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def fmtSec(s: Double): String =
    if (s < 1e-4) f"${s * 1e6}%.1fµs"
    else if (s < 0.1) f"${s * 1e3}%.2fms"
    else f"$s%.1fs"

  // =========================================================================
  // Table III — graph suite overview
  // =========================================================================

  final case class T3Row(cfg: GraphGen.LiteConfig, v: Long, e: Long, labels: Long,
                         loops: Long, triangles: Long, genSec: Double, statSec: Double)

  def tableIII(spark: SparkSession, cfgs: Seq[GraphGen.LiteConfig]): Seq[T3Row] =
    cfgs.map { cfg =>
      val (g, genSec) = time(cfg.generate())
      val (s, statSec) = time(GraphStats.compute(spark, g))
      T3Row(cfg, s.v, s.e, s.labels, s.loops, s.triangles, genSec, statSec)
    }

  def renderT3(rows: Seq[T3Row]): String = {
    val sb = new StringBuilder
    sb ++= "== Table III: overview of graphs (lite analogs vs paper originals) ==\n"
    sb ++= f"${"name"}%-4s ${"|V|"}%9s ${"|E|"}%9s ${"|L|"}%4s ${"loops"}%8s ${"tri"}%10s" +
           f"   |   ${"paper|V|"}%8s ${"paper|E|"}%8s ${"loops"}%6s ${"tri"}%6s   ${"gen"}%7s ${"stats"}%7s\n"
    rows.foreach { r =>
      sb ++= f"${r.cfg.name}%-4s ${r.v}%9d ${r.e}%9d ${r.labels}%4d ${r.loops}%8d ${r.triangles}%10d" +
             f"   |   ${r.cfg.paperV}%8s ${r.cfg.paperE}%8s ${r.cfg.paperLoops}%6s ${r.cfg.paperTriangles}%6s" +
             f"   ${fmtSec(r.genSec)}%7s ${fmtSec(r.statSec)}%7s\n"
    }
    sb.result()
  }

  // =========================================================================
  // Table IV — indexing time (IT) and index size (IS): RLC vs ETC, k = 2
  // =========================================================================

  /** Paper Table IV values (full-scale originals) for side-by-side display. */
  val paperT4: Map[String, (String, String, String, String)] = Map(
    // name -> (RLC IT s, RLC IS MB, ETC IT s, ETC IS MB)
    "ADq" -> ("-", "-", "-", "-"), // extra anchor row, not in the paper
    "AD" -> ("0.7", "1.9", "2216.1", "2798.7"),
    "EP" -> ("22.6", "29.3", "-", "-"),
    "TW" -> ("8.1", "93.5", "-", "-"),
    "WN" -> ("33.1", "122.6", "-", "-"),
    "WS" -> ("53.5", "173.9", "-", "-"),
    "WG" -> ("101.3", "403.6", "-", "-"),
    "WT" -> ("812.9", "607.1", "-", "-"),
    "WB" -> ("167.1", "474.2", "-", "-"),
    "WH" -> ("3707.2", "1319.1", "-", "-"),
    "PR" -> ("3104.1", "1212.6", "-", "-"),
    "SO" -> ("57072.5", "844.2", "-", "-"),
    "LJ" -> ("18240.9", "6248.1", "-", "-"),
    "WF" -> ("51338.7", "6467.9", "-", "-"),
  )

  final case class T4Row(name: String, v: Int, e: Int,
                         rlcItSec: Double, rlcSizeMB: Double, rlcEntries: Long,
                         seqItSec: Option[Double],
                         etcItSec: Option[Double], etcSizeMB: Option[Double],
                         etcOutcome: String, // "ok" | "budget" | "skipped"
                         mismatches: Int, checkedQueries: Int)

  // ETC is attempted only up to this |E| (the paper's 24 h timeouts, scaled:
  // larger graphs cannot finish and would only burn the bench budget)
  private val EtcEdgeLimit = 20_000
  private val EtcBudgetMs = 120_000L // wall-clock budget per ETC build

  /** Runs Table IV for the given configs, prefixed with the quarter-scale
    * ETC anchor row `ADq` (the only graph where the ETC baseline finishes
    * in bench time — a 7-minute probe on the full AD analog still hits the
    * budget, matching the paper where ETC needed 2216s even on its
    * smallest graph).
    */
  def tableIV(spark: SparkSession, cfgs: Seq[GraphGen.LiteConfig]): Seq[T4Row] = {
    val withAnchor =
      if (cfgs.exists(_.name == "ADq")) cfgs else GraphGen.adQuarter +: cfgs
    withAnchor.map { cfg =>
      val g = cfg.generate()
      val (rlc, rlcIt) = time(DistRlcIndexBuilder.build(spark, g, 2))
      val seqIt = // the single-threaded, paper-faithful builder, up to 60K edges
        if (g.numEdges <= 60_000) Some(time(RlcIndexBuilder.build(g, 2))._2) else None

      val (etcIt, etcSize, outcome) =
        if (g.numEdges > EtcEdgeLimit) (None, None, "skipped")
        else {
          val (res, sec) = time(Etc.build(g, 2, budgetMs = EtcBudgetMs))
          res match {
            case Some(etc) => (Some(sec), Some(etc.sizeInMB), "ok")
            case None      => (None, None, "budget")
          }
        }

      // correctness spot-check of the built index against online BiBFS
      val trues  = QueryGen.trueQueries(g, 20, len = 2, seed = 1234)
      val falses = QueryGen.falseQueries(g, 20, len = 2, seed = 1235)
      val mism = (trues ++ falses).count { q =>
        rlc.query(q.s, q.t, q.mr) != q.answer
      }

      val row = T4Row(cfg.name, g.numVertices, g.numEdges, rlcIt, rlc.sizeInMB,
        rlc.entryCount, seqIt, etcIt, etcSize, outcome, mism, trues.size + falses.size)
      println(f"  done ${row.name}%-4s rlcIT=${fmtSec(rlcIt)} rlcIS=${row.rlcSizeMB}%.1fMB etc=$outcome")
      row
    }
  }

  def renderT4(rows: Seq[T4Row]): String = {
    val sb = new StringBuilder
    sb ++= "== Table IV: indexing time (IT) and index size (IS), k=2 — RLC vs ETC ==\n"
    sb ++= "   (ours: lite analogs; paper: full graphs, single thread, 24h cap)\n"
    sb ++= f"${"name"}%-4s ${"|V|"}%8s ${"|E|"}%9s | ${"RLC IT"}%8s ${"RLC IS"}%9s ${"entries"}%9s ${"seq IT"}%8s | " +
           f"${"ETC IT"}%8s ${"ETC IS"}%9s | paper RLC IT/IS, ETC IT/IS\n"
    rows.foreach { r =>
      val p = paperT4(r.name)
      val etcIt = r.etcItSec.map(fmtSec).getOrElse(if (r.etcOutcome == "budget") "budget" else "-")
      val etcIs = r.etcSizeMB.map(m => f"$m%.1fMB").getOrElse("-")
      sb ++= f"${r.name}%-4s ${r.v}%8d ${r.e}%9d | ${fmtSec(r.rlcItSec)}%8s ${f"${r.rlcSizeMB}%.1fMB"}%9s " +
             f"${r.rlcEntries}%9d ${r.seqItSec.map(fmtSec).getOrElse("-")}%8s | $etcIt%8s $etcIs%9s | " +
             f"${p._1}s/${p._2}MB, ${p._3}s/${p._4}MB" +
             (if (r.mismatches > 0) s"  !! ${r.mismatches}/${r.checkedQueries} query mismatches" else "") + "\n"
    }
    sb.result()
  }

  // =========================================================================
  // Table V — speed-ups and break-even points over engine stand-ins, k = 3
  // =========================================================================

  /** Paper Table V values for display: (engine, class) -> (SU, BEP), keyed
    * by our engine stand-ins (DESIGN.md §3): SysA = Spark iterative-join
    * dataflow, SysB = NFA-guided BFS, SysC = NFA-guided BiBFS.
    */
  val paperT5: Map[(String, String), (String, String)] = Map(
    // the paper's engines: Sys1 -> SysA, Sys2 -> SysB, Virtuoso -> SysC
    ("SysA", "Q1") -> ("1200x", "84100"), ("SysA", "Q2") -> ("10400x", "34000"),
    ("SysA", "Q3") -> ("18400x", "9400"), ("SysA", "Q4") -> ("34000x", "300"),
    ("SysB", "Q1") -> ("3000x", "34900"), ("SysB", "Q2") -> ("202000x", "1700"),
    ("SysB", "Q3") -> ("1300000x", "130"), ("SysB", "Q4") -> ("104000x", "98"),
    ("SysC", "Q1") -> ("597x", "180000"), ("SysC", "Q2") -> ("4900x", "71700"),
    ("SysC", "Q3") -> ("38100000x", "5"), ("SysC", "Q4") -> ("-", "-"),
  )

  final case class T5Query(s: Int, t: Int, nfa: Nfa, mr: Long, a: Int, b: Int, isQ4: Boolean)

  final case class T5Row(queryClass: String, engine: String,
                         engineSec: Option[Double], rlcSec: Double,
                         su: Option[Double], bep: Option[Long])

  /** Q4 workload: (s, t, a, b) with a^+ b^+ and a != b; the first n/2 are
    * satisfiable, the rest are not (fewer when n*400 draws do not find them).
    */
  private[exp] def q4Queries(g: LabeledGraph, n: Int, seed: Long): Seq[T5Query] = {
    require(g.numLabels >= 2, s"a+∘b+ needs two distinct labels, graph has ${g.numLabels}")
    val rng = new SplittableRandom(seed)
    val out = scala.collection.mutable.ArrayBuffer.empty[T5Query]
    var trues = 0
    var guard = 0
    while (out.size < n && guard < n * 400) {
      guard += 1
      val s = rng.nextInt(g.numVertices); val t = rng.nextInt(g.numVertices)
      val a = rng.nextInt(g.numLabels)
      var b = rng.nextInt(g.numLabels); while (b == a) b = rng.nextInt(g.numLabels)
      val nfa = Nfa.concatPlus(a, b, g.numLabels)
      val ans = NfaBfs.bfs(g, s, t, nfa).get
      if (ans == (trues < n / 2)) {
        out += T5Query(s, t, nfa, 0L, a, b, isQ4 = true); if (ans) trues += 1
      }
    }
    out.toSeq
  }

  private val T5K = 3            // Table V's index parameter
  private val T5PerClass = 4     // queries per class
  private val T5IndexReps = 2000 // passes over a class when timing the index
  private val SysAPerClass = 2   // SysA (Spark fixpoint) queries per class
  private val SysABudgetMs = 120_000L

  def tableV(spark: SparkSession, cfg: GraphGen.LiteConfig): (Double, Double, Seq[T5Row]) = {
    val g = cfg.generate()
    println(s"  graph ${cfg.name}: |V|=${g.numVertices} |E|=${g.numEdges} |L|=${g.numLabels}")
    val (index, itSec) = time(DistRlcIndexBuilder.build(spark, g, T5K))
    println(f"  RLC index built with k=$T5K in ${itSec}%.1fs, ${index.sizeInMB}%.1f MB, ${index.entryCount} entries")

    val edges = g.toDF(spark).cache()
    val rows = try {
      edges.count() // materialize: engines query a loaded graph

      val classes: Seq[(String, Seq[T5Query])] = Seq(
        "Q1" -> genClass(g, 1, T5PerClass, 71),
        "Q2" -> genClass(g, 2, T5PerClass, 72),
        "Q3" -> genClass(g, 3, T5PerClass, 73),
        "Q4" -> q4Queries(g, T5PerClass, 74),
      )

      // (engine, queries timed per class, run); SysA collects inside the timer
      val engines: Seq[(String, Int, T5Query => Any)] = Seq(
        ("SysA", SysAPerClass, q => DistRlcEval.evaluateNfaBatch(spark, edges,
          Seq((q.s, q.t, q.nfa)), budgetMs = SysABudgetMs).collect()),
        ("SysB", T5PerClass, q => NfaBfs.bfs(g, q.s, q.t, q.nfa)),
        ("SysC", T5PerClass, q => NfaBfs.bibfs(g, q.s, q.t, q.nfa)),
      )

      classes.flatMap { case (cls, queries) =>
        require(queries.nonEmpty, s"no queries generated for $cls")
        // RLC per-query time: many repetitions for µs resolution
        var blackhole = 0
        val (_, rlcTotal) = time {
          var r = 0
          while (r < T5IndexReps) {
            queries.foreach { q =>
              val ans = if (q.isQ4) HybridEval.concatPlus(g, index, q.s, q.t, q.a, q.b)
                        else index.query(q.s, q.t, q.mr)
              if (ans) blackhole += 1
            }
            r += 1
          }
        }
        val rlcSec = rlcTotal / (T5IndexReps.toLong * queries.size)
        println(s"  $cls: rlc per-query ${fmtSec(rlcSec)} (blackhole=$blackhole)")

        engines.map { case (engine, n, run) =>
          val times = queries.take(n).flatMap { q =>
            try Some(time(run(q))._2)
            catch { case _: java.util.concurrent.TimeoutException => None }
          }
          val sec = if (times.isEmpty) None else Some(median(times))
          val su = sec.map(_ / rlcSec)
          val bep = sec.map(s => math.max(1L, math.ceil(itSec / math.max(1e-12, s - rlcSec)).toLong))
          T5Row(cls, engine, sec, rlcSec, su, bep)
        }
      }
    } finally edges.unpersist()
    (itSec, index.sizeInMB, rows)
  }

  private def genClass(g: LabeledGraph, len: Int, n: Int, seed: Long): Seq[T5Query] = {
    val t = QueryGen.trueQueries(g, n / 2, len, seed)
    val f = QueryGen.falseQueries(g, n - t.size, len, seed + 1)
    (t ++ f).map { q =>
      T5Query(q.s, q.t, Nfa.kleenePlus(q.mr, g.numLabels), q.mr, -1, -1, isQ4 = false)
    }
  }

  def renderT5(itSec: Double, sizeMB: Double, rows: Seq[T5Row]): String = {
    val sb = new StringBuilder
    sb ++= "== Table V: speed-ups (SU) and break-even points (BEP) of the RLC index ==\n"
    sb ++= f"   (index: k=$T5K, built in ${itSec}%.1fs, $sizeMB%.1f MB; paper: 5.9 min, 821 MB on full WN)\n"
    sb ++= f"${"class"}%-5s ${"engine"}%-6s ${"engine t"}%10s ${"RLC t"}%10s ${"SU"}%12s ${"BEP"}%10s | paper(SU, BEP)\n"
    rows.foreach { r =>
      val p = paperT5((r.engine, r.queryClass))
      sb ++= f"${r.queryClass}%-5s ${r.engine}%-6s ${r.engineSec.map(fmtSec).getOrElse("-")}%10s " +
             f"${fmtSec(r.rlcSec)}%10s ${r.su.map(s => f"$s%.0fx").getOrElse("-")}%12s " +
             f"${r.bep.map(_.toString).getOrElse("-")}%10s | ${p._1}, ${p._2}\n"
    }
    sb.result()
  }

  // =========================================================================
  // Query-set execution time (Fig. 3 flavor — supplementary)
  // =========================================================================

  final case class QTRow(name: String, n: Int,
                         rlcTrue: Double, rlcFalse: Double,
                         bfsTrue: Double, bfsFalse: Double,
                         bibfsTrue: Double, bibfsFalse: Double)

  private val QTQueries = 200 // queries in each of the true and false sets

  def queryTime(spark: SparkSession, cfgs: Seq[GraphGen.LiteConfig]): Seq[QTRow] =
    cfgs.map { cfg =>
      val g = cfg.generate()
      val (index, it) = time(DistRlcIndexBuilder.build(spark, g, 2))
      println(f"  ${cfg.name}: index built in $it%.1fs")
      val (trues, falses) = QueryGen.workload(g, QTQueries, len = 2, seed = 2024)

      def rlcSet(qs: Seq[QueryGen.RlcQuery]): Double = {
        var bh = 0
        // repeat the whole set for clock resolution, report per-set time
        val reps = 50
        val (_, sec) = time {
          var r = 0
          while (r < reps) { qs.foreach(q => if (index.query(q.s, q.t, q.mr)) bh += 1); r += 1 }
        }
        sec / reps + (bh & 1) * 1e-15
      }
      def travSet(qs: Seq[QueryGen.RlcQuery], bi: Boolean): Double =
        time(qs.foreach { q =>
          val nfa = Nfa.kleenePlus(q.mr, g.numLabels)
          if (bi) NfaBfs.bibfs(g, q.s, q.t, nfa) else NfaBfs.bfs(g, q.s, q.t, nfa)
        })._2

      QTRow(cfg.name, trues.size + falses.size,
        rlcSet(trues), rlcSet(falses),
        travSet(trues, bi = false), travSet(falses, bi = false),
        travSet(trues, bi = true), travSet(falses, bi = true))
    }

  def renderQT(rows: Seq[QTRow]): String = {
    val sb = new StringBuilder
    sb ++= "== Query-set execution time (Fig. 3 flavor): RLC vs BFS vs BiBFS, (a∘b)+ ==\n"
    sb ++= f"${"name"}%-4s ${"n"}%5s ${"RLC(T)"}%9s ${"RLC(F)"}%9s ${"BFS(T)"}%9s ${"BFS(F)"}%9s ${"BiBFS(T)"}%9s ${"BiBFS(F)"}%9s ${"SU vs BFS"}%10s\n"
    rows.foreach { r =>
      val su = (r.bfsTrue + r.bfsFalse) / math.max(1e-12, r.rlcTrue + r.rlcFalse)
      sb ++= f"${r.name}%-4s ${r.n}%5d ${fmtSec(r.rlcTrue)}%9s ${fmtSec(r.rlcFalse)}%9s " +
             f"${fmtSec(r.bfsTrue)}%9s ${fmtSec(r.bfsFalse)}%9s ${fmtSec(r.bibfsTrue)}%9s " +
             f"${fmtSec(r.bibfsFalse)}%9s ${f"$su%.0fx"}%10s\n"
    }
    sb.result()
  }
}
