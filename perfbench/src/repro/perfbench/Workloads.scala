package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.databind.node.ObjectNode
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import repro.core.{FlatRlcIndex, KbsScratch, Kbs, RlcIndex, RlcIndexBuilder}
import repro.graph.{GraphGen, LabeledGraph}
import repro.spark.DistRlcIndexBuilder

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

/** What a run reports: metrics by name, machine and run facts, and the
  * answers checked and found wrong.
  */
final class Report {
  val metrics = ArrayBuffer.empty[(String, Double)]
  val facts: ObjectNode = Report.mapper.createObjectNode()
  var attempted = 0L
  var failed = 0L

  def metric(name: String, value: Double): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not a finite number: $value")
    metrics += name -> value
  }

  def fact(name: String, value: Any): Unit = value match {
    case x: Int    => facts.put(name, x)
    case x: Long   => facts.put(name, x)
    case x: Double => facts.put(name, x)
    case x         => facts.put(name, x.toString)
  }

  def check(what: String, checked: Long, wrong: Long): Unit = {
    attempted += checked
    failed += wrong
    fact(s"check.$what", s"$wrong wrong of $checked")
    if (wrong > 0) Console.err.println(s"perfbench: CHECK FAILED: $what: $wrong wrong of $checked")
  }
}

object Report {
  val mapper = new ObjectMapper()
}

/** The two workloads, both on WN-lite at k=2.
  *
  *  - `seq-build`: one `RlcIndexBuilder.build` per timed repetition. Kbs and
  *    PR1 probes on the live index do nearly all the work; no Spark.
  *  - `dist-build`: one `DistRlcIndexBuilder.build` on `local[nproc]` per
  *    timed repetition: sequential head, snapshot broadcasts, Spark tasks and
  *    the driver merge; `seq-build` never touches these layers.
  *
  * Both report every end-to-end metric: each finishes with the query loop,
  * a closed loop with one client over a labelled Q1/Q2/Q4 set, on the index
  * it built. Queries are always measured in a fresh JVM
  * (`Queries.measureInFreshJvm`).
  *
  * The seed permutes the vertex ids of WN-lite and of a query sample drawn
  * once on the unpermuted graph: every seed runs the same logical work on
  * a different numbering (memory layout, access-order ties). Re-seeding the
  * generator or the query sample instead moved sequential build time over
  * 10.4–16.8 s and Q4 p99 by over 50% between seeds.
  */
object Workloads {
  val Names = Seq("seq-build", "dist-build")
  val GraphName = "WN"
  val K = 2
  /** Seed of the logical query sample, drawn on the unpermuted graph. */
  val QuerySeed = 104L
  /** Setup runs this many times per run and `setup_s` is the median. */
  val SetupRounds = 5
  /** Timed builds per run, at least; `build_s` is their median. */
  val SeqMinBuilds = 2
  val DistMinBuilds = 3
  /** Budget for generating and labelling the query sample. */
  val QueryBudgetSeconds = 60
  /** Every n-th PR1 probe of the counting build is timed. */
  val Pr1SampleEvery = 64

  /** WN-lite as generated, the seed's vertex permutation, and the permuted
    * graph the workload runs on.
    */
  final case class Input(canonical: LabeledGraph, perm: Array[Int], g: LabeledGraph)

  def run(a: Args, r: Report, tr: Trace): Unit = {
    r.fact("workload", a.workload)
    r.fact("seed", a.seed)
    r.fact("graph", s"$GraphName-lite, vertex ids permuted by the seed (0 = unpermuted)")
    r.fact("k", K)
    a.workload match {
      case "seq-build"  => seqBuild(a, r, tr)
      case "dist-build" => distBuild(a, r, tr)
    }
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val x = body
    (x, seconds(t0))
  }

  /** Setup, run `SetupRounds` times; reports `graph.gen_s` (traced) and returns
    * the last round's value with the median setup time.
    */
  private def setup[A](a: Args, r: Report, tr: Trace)(round: (() => Input) => A): (A, Double) = {
    val gen, total = ArrayBuffer.empty[Double]
    var last: Option[A] = None
    for (_ <- 1 to SetupRounds) {
      val t0 = System.nanoTime()
      last = Some(tr.span("setup") {
        round(() => tr.span("graph.gen") {
          val (in, s) = timed {
            val canonical = GraphGen.lite(GraphName).generate()
            val perm = Graphs.permutation(canonical.numVertices, a.seed)
            Input(canonical, perm, Graphs.relabel(canonical, perm))
          }
          gen += s
          in
        })
      })
      total += seconds(t0)
    }
    if (a.trace) r.metric("graph.gen_s", Stats.median(gen.toSeq))
    (last.get, Stats.median(total.toSeq))
  }

  private def graphFacts(r: Report, g: LabeledGraph): Unit = {
    r.fact("graph.vertices", g.numVertices)
    r.fact("graph.edges", g.numEdges)
    r.fact("graph.labels", g.numLabels)
  }

  /** Repeat `build` until `minSeconds` have passed, at least `minBuilds`
    * times, leaving the last index in `box(0)` as its only reference;
    * returns the build times.
    */
  private def timedBuilds(box: Array[AnyRef], minSeconds: Double, minBuilds: Int)
                         (build: => RlcIndex): Seq[Double] = {
    val times = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (times.size < minBuilds || seconds(t0) < minSeconds) {
      box(0) = null
      val t1 = System.nanoTime()
      box(0) = build
      times += seconds(t1)
    }
    times.toSeq
  }

  private def gcMetrics(r: Report, d: GcReading): Unit = {
    r.metric("jvm.gc_count", d.count.toDouble)
    r.metric("jvm.gc_s", d.millis / 1e3)
  }

  /** The query sample, labelled on the unpermuted graph, on the seed's ids. */
  private def queries(in: Input, tr: Trace): QuerySets =
    tr.span("query.generate") {
      Queries.withBudget("query generation", QueryBudgetSeconds) {
        Queries.generate(in.canonical, QuerySeed).relabel(in.perm)
      }
    }

  /** Checks and metrics shared by every build: condensed property (Def. 5),
    * then either the index and query metrics (untraced; see
    * [[indexAndQueryMetrics]]) or the index shape, snapshot and query-case
    * layers (traced). Returns the query JVM's load and warm-up time (0 when
    * traced).
    */
  private def afterBuild(in: Input, box: Array[AnyRef], a: Args, r: Report, tr: Trace): Double = {
    def index = box(0).asInstanceOf[RlcIndex]
    tr.span("check.condensed") {
      r.check("condensed", index.entryCount, index.condensedViolations)
    }
    val sets = queries(in, tr)
    if (!a.trace) indexAndQueryMetrics(in.g, box, sets, a.seconds, r, tr)
    else { tracedIndexLayers(in.g, index, sets, r, tr); 0.0 }
  }

  /** Entry count and retained heap of the index in `box(0)`, which must be
    * its only reference and is cleared, then the query phase in a fresh JVM.
    * The index is written for that JVM first; the heap measurement then
    * frees the index and collects this JVM's garbage, so both workloads
    * start the query phase from the same idle, collected process. Returns
    * the fresh JVM's load and warm-up time.
    */
  private def indexAndQueryMetrics(g: LabeledGraph, box: Array[AnyRef], sets: QuerySets,
                                   secs: Double, r: Report, tr: Trace): Double = {
    def index = box(0).asInstanceOf[RlcIndex]
    r.metric("index_entries", index.entryCount.toDouble)
    val input = Queries.writeInput(g, index, sets)
    try {
      r.metric("index_heap_mb", Jvm.retainedBytes(box) / 1e6)
      queryMetrics(input, sets, secs, r, tr)
    } finally input.delete()
  }

  private def queryMetrics(input: java.io.File, sets: QuerySets, secs: Double,
                           r: Report, tr: Trace): Double = {
    val (q, freshSetupS) = tr.span("query.measure") { Queries.measureInFreshJvm(input, secs) }
    r.check("Q1/Q2 and Q4 answers", q.checked, q.wrong)
    r.metric("query_ns_p50", q.nsP50)
    r.metric("query_ns_p99", q.nsP99)
    r.metric("query_mqps", q.mqps)
    r.metric("q4_us_p50", q.q4UsP50)
    r.metric("q4_us_p99", q.q4UsP99)
    r.fact("query.distinct", sets.q12.length)
    r.fact("query.passes", q.passes)
    r.fact("q4.distinct", sets.q4.length)
    r.fact("q4.passes", q.q4Passes)
    freshSetupS
  }

  /** Per-layer metrics read from a built index: shape, snapshot flatten
    * time, access order time and the Algorithm 1 case split, with every
    * Q1/Q2 and Q4 answer checked in this JVM.
    */
  private def tracedIndexLayers(g: LabeledGraph, index: RlcIndex, sets: QuerySets, r: Report,
                                tr: Trace): Unit = {
    tr.span("index.shape") { IndexFacts.shape(index).foreach { case (n, v) => r.metric(n, v) } }
    r.metric("builder.order_s", tr.span("builder.order") {
      Stats.medianSeconds(3)(RlcIndexBuilder.accessOrder(g))
    })
    r.metric("snapshot.flatten_s", tr.span("snapshot.flatten") {
      Stats.medianSeconds(3)(FlatRlcIndex.fromIndex(index))
    })
    val (layers, checked, wrong) = tr.span("query.classify") {
      Queries.classify(index, sets, rounds = 5)
    }
    layers.foreach { case (n, v) => r.metric(n, v) }
    r.check("Q1/Q2 answers (case split)", checked, wrong)
    val q = tr.span("check.answers") { Queries.measure(Seq(Replica(g, index)), sets, 0.0, minQ4Passes = 1) }
    r.check("Q1/Q2 and Q4 answers", q.checked, q.wrong)
  }

  private def overheadMetrics(r: Report, untraced: Double, traced: Double): Unit = {
    r.metric("trace.untraced_s", untraced)
    r.metric("trace.traced_s", traced)
    r.metric("trace.overhead_s", traced - untraced)
  }

  private val QueryLoopWarmUp = "the query loop runs warm in a fresh JVM (2 GB heap, " +
    s"pre-touched, -Xbatch), which loads the query sample and ${Queries.Replicas} copies of " +
    "the graph and index, then runs the loop's minimum untimed (100 Q1/Q2 rounds per copy, " +
    s"one Q4 pass) and the short Q4 queries until concatPlus has had ${Queries.Q4WarmCalls} " +
    "calls; setup_s counts that load and warm-up"

  // ---- seq-build ------------------------------------------------------------

  private def seqBuild(a: Args, r: Report, tr: Trace): Unit = {
    r.fact("timed_part", "warm: every setup round builds the ADq-lite index first, " +
      "so the builder is JIT-compiled before the timed WN-lite builds; the checks and " +
      "the query loop run after the first timed build; " + QueryLoopWarmUp)
    val (in, setupS) = setup(a, r, tr) { gen =>
      val in = gen()
      tr.span("warmup") { RlcIndexBuilder.build(GraphGen.adQuarter.generate(), K) }
      in
    }
    val g = in.g
    graphFacts(r, g)
    val box = new Array[AnyRef](1)
    if (!a.trace) {
      // The checks and the query loop follow the first timed build, not the
      // last: after both builds, this JVM's query metrics spread 1.7x wider
      // over 30 runs than those of the other workloads.
      val first = tr.span("build") { timedBuilds(box, 0.0, 1)(RlcIndexBuilder.build(g, K)) }
      r.metric("setup_s", setupS + afterBuild(in, box, a, r, tr))
      val rest = tr.span("build") {
        timedBuilds(box, a.seconds - first.sum, SeqMinBuilds - 1)(RlcIndexBuilder.build(g, K))
      }
      r.metric("build_s", Stats.median(first ++ rest))
    } else {
      val (reference, untracedS) = tr.span("build.untraced") { timed(RlcIndexBuilder.build(g, K)) }
      val refSum = IndexFacts.checksum(reference)
      val gc0 = Jvm.gc
      val (counted, tracedS) = tr.span("build.counted") { timed(countedBuild(g, r, tr)) }
      gcMetrics(r, Jvm.gc - gc0)
      overheadMetrics(r, untracedS, tracedS)
      r.check("counting build equals RlcIndexBuilder.build",
        1, if (counted.entryCount == reference.entryCount &&
               IndexFacts.checksum(counted) == refSum) 0 else 1)

      val (aid, order) = RlcIndexBuilder.accessOrder(g)
      val split = new RlcIndex(g.numVertices, K, aid)
      val scratch = new KbsScratch(g.numVertices, K)
      val hubs = math.max(1, math.ceil(order.length * 0.01).toInt)
      r.metric("builder.hub_roots_s", tr.span("builder.hub_roots") {
        timed(RlcIndexBuilder.runRoots(g, K, split, order.take(hubs).toIndexedSeq, scratch))._2
      })
      r.metric("builder.rest_roots_s", tr.span("builder.rest_roots") {
        timed(RlcIndexBuilder.runRoots(g, K, split, order.drop(hubs).toIndexedSeq, scratch))._2
      })
      r.check("hub/rest split equals RlcIndexBuilder.build",
        1, if (IndexFacts.checksum(split) == refSum) 0 else 1)
      box(0) = reference
      afterBuild(in, box, a, r, tr)
    }
  }

  /** Algorithm 2 over public calls with a [[CountingInserter]]. */
  private def countedBuild(g: LabeledGraph, r: Report, tr: Trace): RlcIndex = {
    val (aid, order) = tr.span("builder.order") { RlcIndexBuilder.accessOrder(g) }
    val index = new RlcIndex(g.numVertices, K, aid)
    val ins = new CountingInserter(index, Pr1SampleEvery, Stats.timerOverheadNs())
    val scratch = new KbsScratch(g.numVertices, K)
    val kbsS = tr.span("kbs.run") {
      timed(order.foreach { root => ins.root = root; Kbs.run(g, root, K, ins, scratch) })._2
    }
    r.metric("kbs.insert_attempts", ins.attempts.toDouble)
    r.metric("kbs.pr2_rejects", ins.pr2Rejects.toDouble)
    r.metric("kbs.pr1_probes", ins.pr1Probes.toDouble)
    r.metric("kbs.pr1_rejects", ins.pr1Rejects.toDouble)
    r.metric("kbs.entries_added", ins.added.toDouble)
    r.metric("kbs.useful_frac", if (ins.attempts == 0) 0.0 else ins.added.toDouble / ins.attempts)
    r.metric("kbs.pr1_s", ins.pr1Seconds)
    r.metric("kbs.self_s", kbsS - ins.pr1Seconds)
    r.fact("kbs.pr1_sampled_probes", ins.sampledProbes)
    index
  }

  // ---- dist-build -----------------------------------------------------------

  private def sparkSession(): SparkSession = {
    val dir = new java.io.File(".bench_build").getAbsoluteFile
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("rlc-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(dir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(dir, "spark-warehouse").getPath)
      .getOrCreate()
  }

  private def distBuild(a: Args, r: Report, tr: Trace): Unit = {
    r.fact("timed_part", "warm: every setup round starts a fresh Spark session and runs " +
      "the distributed build on ADq-lite, so the build path is JIT-compiled before the " +
      "timed WN-lite build; " + QueryLoopWarmUp)
    var spark: SparkSession = null
    val (in, setupS) = setup(a, r, tr) { gen =>
      val in = gen()
      tr.span("spark.start") {
        if (spark != null) spark.stop()
        spark = sparkSession()
      }
      tr.span("warmup") { DistRlcIndexBuilder.build(spark, GraphGen.adQuarter.generate(), K) }
      in
    }
    val g = in.g
    graphFacts(r, g)
    val sc = spark.sparkContext
    r.fact("spark.master", sc.master)
    r.fact("spark.default_parallelism", sc.defaultParallelism)
    val box = new Array[AnyRef](1)
    try {
      if (!a.trace) {
        r.metric("build_s", tr.span("build") {
          Stats.median(timedBuilds(box, a.seconds, DistMinBuilds)(DistRlcIndexBuilder.build(spark, g, K)))
        })
      } else {
        val (reference, untracedS) = tr.span("build.untraced") {
          timed(DistRlcIndexBuilder.build(spark, g, K))
        }
        val probe = new SparkProbe
        sc.addSparkListener(probe)
        val gc0 = Jvm.gc
        val startMs = System.currentTimeMillis()
        val (traced, tracedS) = tr.span("build.traced") {
          val x = timed(DistRlcIndexBuilder.build(spark, g, K))
          probe.awaitQuiet(10000)
          val parent = tr.current
          probe.jobs.foreach { case (id, s, e) => tr.addEpochSpan(s"spark.job.$id", parent, s, e) }
          x
        }
        gcMetrics(r, Jvm.gc - gc0)
        sc.removeSparkListener(probe)
        overheadMetrics(r, untracedS, tracedS)
        r.check("traced distributed build equals untraced",
          1, if (IndexFacts.checksum(traced) == IndexFacts.checksum(reference)) 0 else 1)
        val jobs = probe.jobs
        val headS = (jobs.head._2 - startMs) / 1e3
        val jobsS = jobs.map { case (_, s, e) => e - s }.sum / 1e3
        val taskRunS = probe.runMs / 1e3
        r.metric("dist.head_s", headS)
        r.metric("dist.jobs", jobs.size.toDouble)
        r.metric("dist.tasks", probe.tasks.toDouble)
        r.metric("dist.jobs_s", jobsS)
        r.metric("dist.driver_gap_s", tracedS - headS - jobsS)
        r.metric("dist.task_run_s", taskRunS)
        r.metric("dist.task_cpu_s", probe.cpuNs / 1e9)
        r.metric("dist.task_deser_s", probe.deserMs / 1e3)
        r.metric("dist.result_mb", probe.resultBytes / 1e6)
        r.metric("dist.parallel_eff", taskRunS / (jobsS * sc.defaultParallelism))
        box(0) = reference
      }
    } finally spark.stop()
    val querySetupS = afterBuild(in, box, a, r, tr)
    if (!a.trace) r.metric("setup_s", setupS + querySetupS)
  }
}
