package repro.perfbench

import java.io._
import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import java.util.concurrent.{ExecutionException, FutureTask, TimeUnit, TimeoutException}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import repro.baseline.{Nfa, NfaBfs}
import repro.core.{HybridEval, QueryGen, RlcIndex}
import repro.core.QueryGen.RlcQuery
import repro.graph.LabeledGraph

/** One Q4 query `(s, t, a+ ∘ b+)` with its reference label from `NfaBfs`. */
final case class Q4(s: Int, t: Int, a: Int, b: Int, answer: Boolean)

/** A labelled query set: Q1 `a+` and Q2 `(a∘b)+`, true and false, in
  * shuffled order, plus Q4 with both outcomes.
  */
final case class QuerySets(q12: Array[RlcQuery], q4: Array[Q4]) {
  /** The same queries on the graph relabelled by `perm`. */
  def relabel(perm: Array[Int]): QuerySets = QuerySets(
    q12.map(x => x.copy(s = perm(x.s), t = perm(x.t))),
    q4.map(x => x.copy(s = perm(x.s), t = perm(x.t))))
}

/** One deserialized copy of the graph and index; see [[Queries.Replicas]]. */
final case class Replica(g: LabeledGraph, index: RlcIndex)

/** Per-call latency and throughput over a query set, with answer checks. */
final case class QueryResult(
    nsP50: Double, nsP99: Double, passes: Int, mqps: Double,
    q4UsP50: Double, q4UsP99: Double, q4Passes: Int,
    checked: Long, wrong: Long)

object Queries {
  /** True and false queries each, per constraint length (Q1, Q2). */
  val PerOutcome = 1000
  /** True and false Q4 queries each. */
  val Q4PerOutcome = 500
  /** Q4 candidates labelled per parallel batch. */
  private val Q4Batch = 256
  /** Q1/Q2 rounds per replica and whole Q4 passes, at least, in a
    * measurement.
    */
  val MinQ12Rounds = 100
  val MinQ4Passes = 3
  /** Copies of the graph and index the query loop spreads its calls over.
    * Where a copy lands in memory moves its latency: four copies of one
    * index, deserialized in one JVM, answered Q1/Q2 with p50 from 223 to
    * 311 ns, each copy the same on every visit. Over several copies the
    * result depends less on one placement.
    */
  val Replicas = 6
  /** `HybridEval.concatPlus` calls, at least, in the warm-up. */
  val Q4WarmCalls = 20000
  /** A Q4 query slower than this in the warm-up is not repeated there. */
  private val ShortQ4Ns = 100000L

  /** Run `body` on a daemon thread and fail if it takes over `seconds`;
    * `QueryGen.falseQueries` has no attempt cap and could otherwise spin.
    */
  def withBudget[A](what: String, seconds: Int)(body: => A): A = {
    val task = new FutureTask[A](() => body)
    val thread = new Thread(task, what)
    thread.setDaemon(true)
    thread.start()
    try task.get(seconds.toLong, TimeUnit.SECONDS)
    catch {
      case _: TimeoutException =>
        task.cancel(true)
        throw new IllegalStateException(s"$what exceeded its ${seconds}s budget")
      case e: ExecutionException => throw e.getCause
    }
  }

  /** Q1/Q2 from `QueryGen.workload` and the Q4 set, all labelled on `g`. */
  def generate(g: LabeledGraph, seed: Long): QuerySets = {
    val (t1, f1) = QueryGen.workload(g, PerOutcome, 1, seed * 8 + 1)
    val (t2, f2) = QueryGen.workload(g, PerOutcome, 2, seed * 8 + 3)
    for ((set, name) <- Seq(t1 -> "Q1 true", f1 -> "Q1 false", t2 -> "Q2 true", f2 -> "Q2 false"))
      require(set.size == PerOutcome, s"$name: generated ${set.size} of $PerOutcome queries")
    val q12 = (t1 ++ f1 ++ t2 ++ f2).toArray
    shuffle(q12, new SplittableRandom(seed * 8 + 5))
    QuerySets(q12, q4Set(g, seed * 8 + 6))
  }

  private def shuffle[A](xs: Array[A], rng: SplittableRandom): Unit = {
    var i = xs.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = xs(i); xs(i) = xs(j); xs(j) = t
      i -= 1
    }
  }

  /** Every `t` with a path `s -> t` labelled `a+ ∘ b+`: a product BFS over
    * (vertex, phase), phase 1 after an `a` edge and phase 2 (accepting)
    * after a `b` edge. The product has at most 2|V| states, so unlike
    * `QueryGen`'s closure it needs no state budget.
    */
  private def concatPlusClosure(g: LabeledGraph, s: Int, a: Int, b: Int): Array[Int] = {
    val n = g.numVertices
    val seen = new java.util.BitSet(2 * n)
    val queue = new Array[Int](2 * n)
    var head, tail = 0
    val hits = ArrayBuffer.empty[Int]
    def push(v: Int, phase: Int): Unit = {
      val st = (phase - 1) * n + v
      if (!seen.get(st)) {
        seen.set(st); queue(tail) = st; tail += 1
        if (phase == 2) hits += v
      }
    }
    var i = g.outOff(s)
    while (i < g.outOff(s + 1)) { if (g.outLabel(i) == a) push(g.outDst(i), 1); i += 1 }
    while (head < tail) {
      val st = queue(head); head += 1
      val v = st % n
      val inA = st < n
      var j = g.outOff(v)
      while (j < g.outOff(v + 1)) {
        val l = g.outLabel(j)
        if (l == b) push(g.outDst(j), 2) else if (l == a && inA) push(g.outDst(j), 1)
        j += 1
      }
    }
    hits.toArray
  }

  /** Q4 queries, drawn as `QueryGen` draws Q1/Q2. True ones: a uniform
    * source and label pair `a != b`, then up to four targets drawn
    * uniformly from the source's `a+ ∘ b+` closure. False ones: uniform
    * rejection sampling of `(s, t, a, b)`. Every query is labelled by
    * `NfaBfs.bfs` with `Nfa.concatPlus`, in parallel batches; the set
    * depends on the seed alone.
    */
  private def q4Set(g: LabeledGraph, seed: Long): Array[Q4] = {
    val rng = new SplittableRandom(seed)
    def draw(): (Int, Int, Int) = {
      val s = rng.nextInt(g.numVertices)
      val a = rng.nextInt(g.numLabels)
      (s, a, (a + 1 + rng.nextInt(g.numLabels - 1)) % g.numLabels)
    }
    def label(batch: Array[(Int, Int, Int, Int)]): Array[Q4] =
      java.util.stream.IntStream.range(0, batch.length).parallel().mapToObj[Q4] { i =>
        val (s, t, a, b) = batch(i)
        Q4(s, t, a, b, NfaBfs.bfs(g, s, t, Nfa.concatPlus(a, b, g.numLabels)).get)
      }.toArray(new Array[Q4](_))

    val trueDraws = ArrayBuffer.empty[(Int, Int, Int, Int)]
    var attempts = 0
    while (trueDraws.size < Q4PerOutcome) {
      require(attempts < 200 * Q4PerOutcome, s"Q4: ${trueDraws.size} true after $attempts sources")
      attempts += 1
      val (s, a, b) = draw()
      val ts = concatPlusClosure(g, s, a, b)
      var picks = math.min(4, math.min(ts.length, Q4PerOutcome - trueDraws.size))
      while (picks > 0) { trueDraws += ((s, ts(rng.nextInt(ts.length)), a, b)); picks -= 1 }
    }
    val trues = label(trueDraws.toArray)
    require(trues.forall(_.answer), "Q4: a target drawn from the closure is unreachable by NfaBfs")

    val falses = ArrayBuffer.empty[Q4]
    var draws = 0
    while (falses.size < Q4PerOutcome) {
      require(draws < 500 * Q4PerOutcome, s"Q4: ${falses.size} false after $draws draws")
      draws += Q4Batch
      val batch = Array.fill(Q4Batch) { val (s, a, b) = draw(); (s, rng.nextInt(g.numVertices), a, b) }
      falses ++= label(batch).iterator.filterNot(_.answer).take(Q4PerOutcome - falses.size)
    }
    val q4 = trues ++ falses
    shuffle(q4, rng)
    q4
  }

  /** A closed loop with one client thread, in two phases, over the
    * `replicas`. Q1/Q2 runs for a third of `seconds`, in one block per
    * replica of at least `MinQ12Rounds` rounds, each one pass timed per call
    * and one untimed pass. Whole Q4 passes timed per call run for the rest
    * and at least `minQ4Passes` times, pass p on replica p mod k. Every answer is compared with its label. Q4 has a phase
    * of its own: interleaved with Q1/Q2, its long traversals left the index
    * out of cache for the Q1/Q2 calls that followed.
    *
    * p50 and p99 are taken over the queries within each timed pass, net of
    * the mean cost of the `nanoTime` pair around a call. Q1/Q2 reports the
    * mean over replicas of each block's median, and throughput is the
    * Q1/Q2 set size over the mean of each block's median untimed pass; Q4
    * reports the median over passes. Medians keep a burst of machine noise
    * from moving the result.
    */
  def measure(replicas: Seq[Replica], sets: QuerySets, seconds: Double,
              minQ4Passes: Int = MinQ4Passes): QueryResult = {
    val overhead = Stats.timerOverheadNs()
    val q = sets.q12
    val q4 = sets.q4
    val row = new Array[Long](q.length)
    val p50s, p99s, passTimes = ArrayBuffer.empty[Double]
    var rounds = 0
    var checked, wrong = 0L
    val start = System.nanoTime()
    for ((r, c) <- replicas.zipWithIndex) {
      val blockEnd = start + ((c + 1) * seconds * 1e9 / 3 / replicas.length).toLong
      val bP50s, bP99s, bTimes = ArrayBuffer.empty[Double]
      while (bP50s.size < MinQ12Rounds || System.nanoTime() < blockEnd) {
        wrong += q12Pass(r.index, q, row)
        val Seq(p50, p99) = Stats.quantiles(row, row.length, 0.5, 0.99)
        bP50s += p50 - overhead
        bP99s += p99 - overhead
        val t0 = System.nanoTime()
        wrong += q12PlainPass(r.index, q)
        bTimes += (System.nanoTime() - t0) / 1e9
        checked += 2L * q.length
      }
      p50s += med(bP50s)
      p99s += med(bP99s)
      passTimes += med(bTimes)
      rounds += bP50s.size
    }
    val q4Row = new Array[Long](q4.length)
    val q4P50s, q4P99s = ArrayBuffer.empty[Double]
    val end = start + (seconds * 1e9).toLong
    while (q4P50s.size < minQ4Passes || System.nanoTime() < end) {
      wrong += q4Pass(replicas(q4P50s.size % replicas.length), q4, q4Row)
      val Seq(p50, p99) = Stats.quantiles(q4Row, q4Row.length, 0.5, 0.99)
      q4P50s += (p50 - overhead) / 1e3
      q4P99s += (p99 - overhead) / 1e3
      checked += q4.length
    }
    def mean(xs: ArrayBuffer[Double]) = xs.sum / xs.size
    QueryResult(mean(p50s), mean(p99s), rounds, q.length / mean(passTimes) / 1e6,
      med(q4P50s), med(q4P99s), q4P50s.size, checked, wrong)
  }

  private def med(xs: ArrayBuffer[Double]): Double = Stats.median(xs.toSeq)

  /** One pass over Q1/Q2 timed per call into `row`; returns the wrong
    * answers.
    */
  private def q12Pass(index: RlcIndex, q: Array[RlcQuery], row: Array[Long]): Int = {
    var wrong = 0
    var i = 0
    while (i < q.length) {
      val x = q(i)
      val t0 = System.nanoTime()
      val hit = index.query(x.s, x.t, x.mr)
      row(i) = System.nanoTime() - t0
      if (hit != x.answer) wrong += 1
      i += 1
    }
    wrong
  }

  /** One untimed pass over Q1/Q2; returns the wrong answers. */
  private def q12PlainPass(index: RlcIndex, q: Array[RlcQuery]): Int = {
    var wrong = 0
    var i = 0
    while (i < q.length) {
      val x = q(i)
      if (index.query(x.s, x.t, x.mr) != x.answer) wrong += 1
      i += 1
    }
    wrong
  }

  /** One pass over Q4 on `r`, timed per call into `row`; returns the wrong
    * answers.
    */
  private def q4Pass(r: Replica, q4: Array[Q4], row: Array[Long]): Int = {
    var wrong = 0
    var i = 0
    while (i < q4.length) {
      val x = q4(i)
      val t0 = System.nanoTime()
      val hit = HybridEval.concatPlus(r.g, r.index, x.s, x.t, x.a, x.b)
      row(i) = System.nanoTime() - t0
      if (hit != x.answer) wrong += 1
      i += 1
    }
    wrong
  }

  /** Untimed warm-up before a measurement: the loop's minimum (100 Q1/Q2
    * rounds per replica and one whole Q4 pass), then, on the first replica,
    * the Q4 queries that answer in under `ShortQ4Ns`, repeated until
    * `concatPlus` has had `Q4WarmCalls` calls. `concatPlus` reaches the JIT's top tier only after some
    * thousands of calls, and the short queries ran about 3x slower before
    * that (Q4 p50 about 7 µs against 2 µs): a measurement that started
    * after one pass reported when that compile happened. Returns the
    * answers checked and wrong.
    */
  def warmUp(replicas: Seq[Replica], sets: QuerySets): (Long, Long) = {
    val round = measure(replicas, sets, 0.0, minQ4Passes = 1)
    val Replica(g, index) = replicas.head
    var checked = round.checked
    var wrong = round.wrong
    val q4 = sets.q4
    val slow = new Array[Boolean](q4.length)
    var calls = q4.length
    while (calls < Q4WarmCalls && slow.contains(false)) {
      var i = 0
      while (i < q4.length) {
        if (!slow(i)) {
          val x = q4(i)
          val t0 = System.nanoTime()
          if (HybridEval.concatPlus(g, index, x.s, x.t, x.a, x.b) != x.answer) wrong += 1
          slow(i) = System.nanoTime() - t0 > ShortQ4Ns
          calls += 1
          checked += 1
        }
        i += 1
      }
    }
    (checked, wrong)
  }

  /** The graph, index and query set, written to a file under
    * `.bench_build/run` for [[measureInFreshJvm]]; the caller deletes it.
    */
  def writeInput(g: LabeledGraph, index: RlcIndex, sets: QuerySets): File = {
    val dir = new File(".bench_build/run")
    dir.mkdirs()
    val file = File.createTempFile("query-phase", ".bin", dir)
    val out = new ObjectOutputStream(new BufferedOutputStream(new FileOutputStream(file)))
    try { out.writeObject(g); out.writeObject(index); out.writeObject(sets) } finally out.close()
    file
  }

  /** `measure` in a fresh JVM that loads the graph, index and query set
    * from `input` ([[writeInput]]), warms up ([[warmUp]]), then measures.
    * Every workload measures queries this way, so the result does not
    * depend on what the workload's JVM compiled and allocated before (in
    * one JVM, Q1/Q2 latency moved by up to 2x with that history). Its heap
    * is touched at start, so the timed loop takes no page faults as
    * allocation reaches fresh heap. It compiles in the foreground
    * (`-Xbatch`), so the JIT makes its decisions at the same points of the
    * warm-up in every JVM: with background compilation, six JVMs in a row
    * on the same input gave Q1/Q2 p50 from 187 to 265 ns, and with
    * `-Xbatch` from 246 to 267 ns. Returns the result and the seconds the
    * fresh JVM spent loading and warming up.
    */
  def measureInFreshJvm(input: File, seconds: Double): (QueryResult, Double) = {
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filterNot(a => a.startsWith("-Xms") || a.startsWith("-Xmx"))
    val cmd = Seq(new File(System.getProperty("java.home"), "bin/java").getPath) ++ jvmArgs ++
      Seq(s"-Xms$FreshJvmHeap", s"-Xmx$FreshJvmHeap", "-XX:+AlwaysPreTouch", "-Xbatch",
        "-cp", System.getProperty("java.class.path"),
        "repro.perfbench.QueryPhase", input.getPath, seconds.toString)
    val proc = new ProcessBuilder(cmd: _*).redirectError(ProcessBuilder.Redirect.INHERIT).start()
    try {
      val lines = scala.io.Source.fromInputStream(proc.getInputStream).getLines().toVector
      require(proc.waitFor(FreshJvmTimeoutSeconds, TimeUnit.SECONDS) && proc.exitValue == 0,
        "query-phase JVM failed")
      val v = lines.last.split(' ').map(_.toDouble)
      (QueryResult(v(0), v(1), v(2).toInt, v(3), v(4), v(5), v(6).toInt, v(7).toLong, v(8).toLong), v(9))
    } finally {
      proc.destroyForcibly()
      proc.waitFor()
    }
  }

  private val FreshJvmHeap = "2g"
  private val FreshJvmTimeoutSeconds = 120L

  /** Traced pass: which Algorithm 1 case answers each Q1/Q2 query, with the
    * Case-2 lookups and the Case-1 merge join timed separately, `rounds`
    * times over the set. Returns the per-layer metrics and the answers
    * checked and wrong.
    */
  def classify(index: RlcIndex, sets: QuerySets, rounds: Int): (Seq[(String, Double)], Long, Long) = {
    val overhead = Stats.timerOverheadNs()
    val q = sets.q12
    val case2Ns = new Samples()
    val case1Ns = new Samples()
    var case2Hits, case1Hits, negatives, scanned, wrong = 0L
    for (round <- 1 to rounds) {
      for (x <- q) {
        val t0 = System.nanoTime()
        val direct = index.outContains(x.s, x.t, x.mr) || index.inContains(x.t, x.s, x.mr)
        val t1 = System.nanoTime()
        case2Ns.add(t1 - t0)
        val hit = direct || {
          val joined = index.caseOneJoin(x.s, x.t, x.mr)
          case1Ns.add(System.nanoTime() - t1)
          joined
        }
        if (hit != x.answer) wrong += 1
        if (round == 1) {
          if (direct) case2Hits += 1 else if (hit) case1Hits += 1 else negatives += 1
          scanned += index.out(x.s).n + index.in(x.t).n
        }
      }
    }
    val metrics = Seq(
      "query.case2_hits" -> case2Hits.toDouble,
      "query.case1_hits" -> case1Hits.toDouble,
      "query.negatives" -> negatives.toDouble,
      "query.case2_ns_p50" -> (case2Ns.quantiles(0.5).head - overhead),
      "query.case1_ns_p50" -> (if (case1Ns.n == 0) 0.0 else case1Ns.quantiles(0.5).head - overhead),
      "query.entries_scanned_mean" -> scanned.toDouble / q.length,
    )
    (metrics, rounds.toLong * q.length, wrong)
  }
}
