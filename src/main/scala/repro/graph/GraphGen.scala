package repro.graph

import java.util.SplittableRandom
import scala.collection.mutable.ArrayBuffer

/** Deterministic synthetic graph generators (paper Sec. VI-b).
  *
  * The paper evaluates on 13 SNAP/KONECT graphs plus synthetic Erdős–Rényi
  * (ER) and Barabási–Albert (BA) graphs generated with JGraphT, assigning
  * labels with a Zipfian distribution of exponent 2. We implement both
  * models from scratch:
  *
  *  - `er(n, m, ...)`: m directed edges drawn uniformly over ordered vertex
  *    pairs (near-uniform degree distribution);
  *  - `ba(n, m, ...)`: a complete seed sub-graph of `n/2000` vertices (the
  *    paper's construction), then each new vertex attaches `m/n` edges to
  *    existing vertices chosen proportionally to degree; each attachment is
  *    oriented uniformly at random so the digraph is cyclic (a one-way
  *    orientation would yield a DAG, which would make reachability trivial);
  *  - self-loops injected separately (`withLoops`) to match loop-heavy
  *    graphs such as StackOverflow.
  *
  * Everything is seeded, so tests, benches, and the DuckDB oracle all see
  * identical graphs.
  */
object GraphGen {

  /** Zipf(2) sampler over labels 0..nLabels-1 (rank 1 = label 0). */
  final class ZipfLabels(nLabels: Int) extends Serializable {
    private val cdf: Array[Double] = {
      val w = (1 to nLabels).map(r => 1.0 / math.pow(r, 2.0)).toArray
      val total = w.sum
      val c = new Array[Double](nLabels)
      var acc = 0.0
      var i = 0
      while (i < nLabels) { acc += w(i) / total; c(i) = acc; i += 1 }
      c(nLabels - 1) = 1.0
      c
    }
    def sample(rng: SplittableRandom): Int = {
      val u = rng.nextDouble()
      val i = java.util.Arrays.binarySearch(cdf, u)
      if (i >= 0) i else math.min(-i - 1, cdf.length - 1)
    }
  }

  /** Directed Erdős–Rényi G(n, m) with Zipf(2) labels. Self-loops excluded
    * (inject with `withLoops` if needed), so edges need two vertices.
    */
  def er(n: Int, m: Int, nLabels: Int, seed: Long): LabeledGraph = {
    require(n >= 2 || m == 0, s"er: $m loop-free edges need at least 2 vertices, got n=$n")
    val rng  = new SplittableRandom(seed)
    val zipf = new ZipfLabels(nLabels)
    val triples = new Array[(Int, Int, Int)](m)
    var i = 0
    while (i < m) {
      val s = rng.nextInt(n)
      var d = rng.nextInt(n)
      while (d == s) d = rng.nextInt(n)
      triples(i) = (s, zipf.sample(rng), d)
      i += 1
    }
    LabeledGraph.fromEdges(n, nLabels, triples)
  }

  /** Directed Barabási–Albert graph: complete seed clique of
    * `max(3, n/2000)` vertices, then `max(1, m/n)` preferential attachments
    * per new vertex, each oriented uniformly at random. Zipf(2) labels.
    */
  def ba(n: Int, m: Int, nLabels: Int, seed: Long): LabeledGraph = {
    val rng  = new SplittableRandom(seed)
    val zipf = new ZipfLabels(nLabels)
    val c    = math.min(n, math.max(3, n / 2000))
    val triples = new ArrayBuffer[(Int, Int, Int)](m + c * c)
    // Degree-proportional sampling via the repeated-endpoints trick.
    val endpoints = new ArrayBuffer[Int](2 * (m + c * c))

    var u = 0
    while (u < c) {
      var v = 0
      while (v < c) {
        if (u != v) {
          triples += ((u, zipf.sample(rng), v))
          endpoints += u; endpoints += v
        }
        v += 1
      }
      u += 1
    }

    val seedEdges = triples.length
    val perNode   = math.max(1, (m - seedEdges) / math.max(1, n - c))
    var w = c
    while (w < n) {
      var j = 0
      while (j < perNode) {
        val t = endpoints(rng.nextInt(endpoints.length))
        val (s, d) = if (rng.nextBoolean()) (w, t) else (t, w)
        triples += ((s, zipf.sample(rng), d))
        endpoints += s; endpoints += d
        j += 1
      }
      w += 1
    }
    LabeledGraph.fromEdges(n, nLabels, triples.toArray)
  }

  /** Add `count` self-loops at random vertices with Zipf(2) labels.
    * Duplicate (v, l, v) triples collapse, so the effective loop count can
    * be slightly below `count` on small graphs.
    */
  def withLoops(g: LabeledGraph, count: Int, seed: Long): LabeledGraph = {
    val rng  = new SplittableRandom(seed)
    val zipf = new ZipfLabels(g.numLabels)
    val triples = g.edges.toArray ++ Array.fill(count) {
      val v = rng.nextInt(g.numVertices)
      (v, zipf.sample(rng), v)
    }
    LabeledGraph.fromEdges(g.numVertices, g.numLabels, triples)
  }

  // ---------------------------------------------------------------------
  // The "lite" analog suite of the paper's 13 real-world graphs (Table III)
  // ---------------------------------------------------------------------

  /** One analog graph: generation parameters plus the paper's reference
    * statistics for the original (Table III) so benches can print both.
    */
  final case class LiteConfig(
      name: String,
      fullName: String,
      v: Int,
      e: Int,
      labels: Int,
      model: String, // "ER" | "BA"
      loops: Int,
      seed: Long,
      paperV: String,
      paperE: String,
      paperLoops: String,
      paperTriangles: String,
  ) {
    def generate(): LabeledGraph = {
      val base = model match {
        case "ER" => er(v, e - loops, labels, seed)
        case "BA" => ba(v, e - loops, labels, seed)
        case other => throw new IllegalArgumentException(s"unknown model $other")
      }
      if (loops > 0) withLoops(base, loops, seed + 7919) else base
    }
  }

  /** Scaled-down analogs: same |L|, same degree-distribution family (BA for
    * skewed web/social graphs, ER for the near-uniform ones), loop counts
    * scaled with |V|. AD is reproduced at the paper's full scale. Sizes are
    * chosen so the whole Table IV sweep runs in minutes on 16 cores; see
    * DESIGN.md §3 for why shape, not scale, carries the paper's claims.
    */
  val liteSuite: Seq[LiteConfig] = Seq(
    LiteConfig("AD", "Advogato",       6_000,   51_000, 3,  "BA", 4_000,  101, "6K",   "51K",    "4K",  "98K"),
    LiteConfig("EP", "Soc-Epinions",   7_500,   51_000, 8,  "BA", 0,      102, "75K",  "508K",   "0",   "1.6M"),
    LiteConfig("TW", "Twitter-ICWSM", 46_500,   83_400, 8,  "ER", 0,      103, "465K", "834K",   "0",   "38K"),
    LiteConfig("WN", "Web-NotreDame", 32_500,  140_000, 8,  "BA", 2_700,  104, "325K", "1.4M",   "27K", "8.9M"),
    LiteConfig("WS", "Web-Stanford",  28_100,  170_000, 8,  "BA", 0,      105, "281K", "2M",     "0",   "11M"),
    LiteConfig("WG", "Web-Google",    50_000,  290_000, 8,  "BA", 0,      106, "875K", "5M",     "0",   "13M"),
    LiteConfig("WT", "Wiki-Talk",    115_000,  250_000, 8,  "BA", 0,      107, "2.3M", "5M",     "0",   "9M"),
    LiteConfig("WB", "Web-BerkStan",  40_000,  330_000, 8,  "BA", 0,      108, "685K", "7M",     "0",   "64M"),
    LiteConfig("WH", "Wiki-hyperlink",50_000,  360_000, 8,  "BA", 200,    109, "1.7M", "28.5M",  "4K",  "52M"),
    LiteConfig("PR", "Pokec",         48_000,  380_000, 8,  "BA", 0,      110, "1.6M", "30.6M",  "0",   "32M"),
    LiteConfig("SO", "StackOverflow", 45_000,  390_000, 3,  "BA", 90_000, 111, "2.6M", "63.4M",  "15M", "114M"),
    LiteConfig("LJ", "LiveJournal",   42_000,  420_000, 50, "BA", 0,      112, "4.8M", "68.9M",  "0",   "285M"),
    LiteConfig("WF", "Wiki-link-fr",  28_000,  450_000, 25, "BA", 400,    113, "3.3M", "123.7M", "19K", "30B"),
  )

  /** Quarter-scale Advogato anchor, not part of the paper's 13-graph suite:
    * small enough that the ETC baseline *completes* within a bench budget,
    * so Table IV keeps one measured RLC-vs-ETC contrast (the paper's AD row
    * needed 37 minutes of ETC build even at |E|=51K).
    */
  val adQuarter: LiteConfig =
    LiteConfig("ADq", "Advogato quarter-scale (ETC anchor)",
      1_500, 12_750, 3, "BA", 1_000, 100, "(6K)", "(51K)", "(4K)", "(98K)")

  def lite(name: String): LiteConfig =
    if (name == "ADq") adQuarter
    else liteSuite.find(_.name == name).getOrElse(throw new NoSuchElementException(name))
}
