package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.LabelSeq

/** Immutable edge-labeled directed graph in CSR form (both directions).
  *
  * Vertices are `0 until numVertices`, labels `0 until numLabels`. The
  * out-adjacency of `v` is `outDst/outLabel` in `[outOff(v), outOff(v+1))`,
  * and symmetrically for in-adjacency. Parallel edges and self-loops are
  * allowed (the paper's graphs have both); duplicate (src,label,dst)
  * triples are collapsed at construction.
  *
  * This is the in-memory substrate for the sequential indexing algorithm
  * and for each executor task of the distributed builder (the graph is
  * broadcast once; the largest lite analog, WF, has 450K edges).
  */
final class LabeledGraph private (
    val numVertices: Int,
    val numLabels: Int,
    val outOff: Array[Int],
    val outDst: Array[Int],
    val outLabel: Array[Int],
    val inOff: Array[Int],
    val inSrc: Array[Int],
    val inLabel: Array[Int],
) extends Serializable {

  def numEdges: Int = outDst.length

  def outDegree(v: Int): Int = outOff(v + 1) - outOff(v)
  def inDegree(v: Int): Int  = inOff(v + 1) - inOff(v)

  /** All edges as (src, label, dst) triples. */
  def edges: Iterator[(Int, Int, Int)] =
    (0 until numVertices).iterator.flatMap { s =>
      (outOff(s) until outOff(s + 1)).iterator.map(i => (s, outLabel(i), outDst(i)))
    }

  /** Spark view of the edge table: columns src, label, dst (all ints). */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.createDataset(edges.toSeq).toDF("src", "label", "dst")
  }
}

object LabeledGraph {

  /** Vertex-count limit: the dedup key packs src and dst into 24 bits each. */
  val MaxVertices: Int = 1 << 24

  /** Build from raw triples (src, label, dst); duplicates collapsed. */
  def fromEdges(numVertices: Int, numLabels: Int, triples: Array[(Int, Int, Int)]): LabeledGraph = {
    require(numVertices <= MaxVertices, s"numVertices=$numVertices exceeds $MaxVertices")
    require(numLabels <= LabelSeq.MaxLabels,
      s"numLabels=$numLabels exceeds ${LabelSeq.MaxLabels}, the packed LabelSeq limit")
    val dedup = {
      val seen = new java.util.HashSet[Long](triples.length * 2)
      val buf  = new scala.collection.mutable.ArrayBuffer[(Int, Int, Int)](triples.length)
      var i = 0
      while (i < triples.length) {
        val (s, l, d) = triples(i)
        require(s >= 0 && s < numVertices && d >= 0 && d < numVertices, s"vertex out of range: ($s,$l,$d)")
        require(l >= 0 && l < numLabels, s"label out of range: ($s,$l,$d)")
        // pack (s,l,d) into one long: 24 bits src, 24 bits dst, 16 bits label
        val key = (s.toLong << 40) | (d.toLong << 16) | l.toLong
        if (seen.add(key)) buf += ((s, l, d))
        i += 1
      }
      buf.toArray
    }
    val m = dedup.length

    val outOff = new Array[Int](numVertices + 1)
    val inOff  = new Array[Int](numVertices + 1)
    dedup.foreach { case (s, _, d) => outOff(s + 1) += 1; inOff(d + 1) += 1 }
    var v = 0
    while (v < numVertices) { outOff(v + 1) += outOff(v); inOff(v + 1) += inOff(v); v += 1 }

    val outDst   = new Array[Int](m)
    val outLab   = new Array[Int](m)
    val inSrc    = new Array[Int](m)
    val inLab    = new Array[Int](m)
    val outCur   = java.util.Arrays.copyOf(outOff, numVertices)
    val inCur    = java.util.Arrays.copyOf(inOff, numVertices)
    dedup.foreach { case (s, l, d) =>
      outDst(outCur(s)) = d; outLab(outCur(s)) = l; outCur(s) += 1
      inSrc(inCur(d)) = s; inLab(inCur(d)) = l; inCur(d) += 1
    }
    new LabeledGraph(numVertices, numLabels, outOff, outDst, outLab, inOff, inSrc, inLab)
  }
}
