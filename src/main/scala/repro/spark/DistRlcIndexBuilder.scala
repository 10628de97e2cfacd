package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.LabeledGraph

/** Distributed construction of the RLC index.
  *
  * The sequential Algorithm 2 is inherently ordered: PR1 queries the index
  * snapshot produced by all earlier searches. We parallelize it by
  * processing vertices in access-id order in *batches*: within a batch,
  * every root's backward+forward KBS runs as a Spark task against a frozen
  * broadcast snapshot (plus the task's own entries as an overlay, which
  * reproduces the within-search dedup of the sequential algorithm); the
  * driver then merges each root's candidate entries in access-id order,
  * replaying PR1 against the live index.
  *
  * Correctness (DESIGN.md §6): the frozen snapshot is a subset of the live
  * index, so in-flight PR1/PR3 prune strictly *less* than the sequential
  * algorithm — tasks emit a superset of candidates, never lose a path — and
  * every in-flight prune was justified by entries that remain in the final
  * index. The merge-time PR1 replay restores the condensed property.
  *
  * Batches grow geometrically: early batches are small because a fresh
  * snapshot matters most while the high-access-id hub entries are being
  * laid down; later batches are large to amortize the broadcast.
  */
object DistRlcIndexBuilder {

  private val DirOutBit = 1 << 30

  /** Per-task inserter: PR2 by access id; PR1 against frozen snapshot +
    * this task's local overlay (all overlay entries have hop = root, so the
    * overlay terms below cover exactly the Case-2 and hop-root Case-1
    * contributions the snapshot cannot see).
    */
  private final class TaskInserter(snap: FlatRlcIndex, aid: Array[Int], root: Int)
      extends Inserter {
    private val localOut = new java.util.HashMap[Integer, java.util.HashSet[java.lang.Long]]()
    private val localIn  = new java.util.HashMap[Integer, java.util.HashSet[java.lang.Long]]()
    var meta: Array[Int] = new Array[Int](16)
    var mrs: Array[Long] = new Array[Long](16)
    var n: Int = 0

    private def ovHas(m: java.util.HashMap[Integer, java.util.HashSet[java.lang.Long]],
                      v: Int, mr: Long): Boolean = {
      val s = m.get(v); s != null && s.contains(mr)
    }
    private def ovAdd(m: java.util.HashMap[Integer, java.util.HashSet[java.lang.Long]],
                      v: Int, mr: Long): Unit = {
      var s = m.get(v)
      if (s == null) { s = new java.util.HashSet[java.lang.Long](4); m.put(v, s) }
      s.add(mr)
    }
    private def record(dirOut: Boolean, y: Int, mr: Long): Unit = {
      if (n == meta.length) {
        meta = java.util.Arrays.copyOf(meta, n * 2)
        mrs = java.util.Arrays.copyOf(mrs, n * 2)
      }
      meta(n) = if (dirOut) y | DirOutBit else y
      mrs(n) = mr
      n += 1
    }

    def insertOut(y: Int, mr: Long): Boolean = {
      if (aid(root) > aid(y)) return false // PR2
      val pruned = // PR1 = Query(y, root, mr^+) over snapshot ∪ overlay
        snap.outContains(y, root, mr) || ovHas(localOut, y, mr) ||
        snap.inContains(root, y, mr) || (y == root && ovHas(localIn, root, mr)) ||
        snap.caseOneJoin(y, root, mr)
      if (pruned) false
      else { ovAdd(localOut, y, mr); record(dirOut = true, y, mr); true }
    }

    def insertIn(y: Int, mr: Long): Boolean = {
      if (aid(root) > aid(y)) return false // PR2
      val pruned = // PR1 = Query(root, y, mr^+) over snapshot ∪ overlay
        snap.outContains(root, y, mr) || (y == root && ovHas(localOut, root, mr)) ||
        snap.inContains(y, root, mr) || ovHas(localIn, y, mr) ||
        snap.caseOneJoin(root, y, mr)
      if (pruned) false
      else { ovAdd(localIn, y, mr); record(dirOut = false, y, mr); true }
    }
  }

  /** @param seqHead number of highest-priority roots processed sequentially
    *        on the driver before parallel batching begins; -1 picks
    *        `max(64, |V|/64)` capped at 1024. The head is where almost all
    *        mutual PR1 pruning happens — hubs processed in the same frozen
    *        batch cannot prune each other, so batching them multiplies work
    *        by orders of magnitude (measured on the WN analog: 38M
    *        candidates for the first 256 roots batched vs 46K with a
    *        sequential head; on the WB analog a 512-root head turns a 478s
    *        build into 111s).
    */
  def build(spark: SparkSession, g: LabeledGraph, k: Int,
            firstBatch: Int = 4096, maxBatch: Int = 65536,
            seqHead: Int = -1): RlcIndex = {
    require(k >= 1 && k <= LabelSeq.MaxLen)
    val sc = spark.sparkContext
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index   = new RlcIndex(g.numVertices, k, aid)
    val bcGraph = sc.broadcast(g)
    val bcAid   = sc.broadcast(aid)

    val head = math.min(order.length,
      if (seqHead >= 0) seqHead else math.min(1024, math.max(64, g.numVertices / 64)))
    RlcIndexBuilder.runRoots(g, k, index, order.take(head).toIndexedSeq,
      new KbsScratch(g.numVertices, k))

    var start = head
    var batchSize = firstBatch
    while (start < order.length) {
      val batch  = order.slice(start, math.min(order.length, start + batchSize))
      val bcSnap = sc.broadcast(FlatRlcIndex.fromIndex(index))
      val slices = math.max(1, math.min(batch.length, sc.defaultParallelism * 4))

      val results: Array[(Int, Array[Int], Array[Long], Int)] =
        sc.parallelize(batch.toIndexedSeq, slices)
          .mapPartitions { roots =>
            val graph   = bcGraph.value
            val aidArr  = bcAid.value
            val snap    = bcSnap.value
            val scratch = new KbsScratch(graph.numVertices, k)
            roots.map { root =>
              val ins = new TaskInserter(snap, aidArr, root)
              Kbs.run(graph, root, k, ins, scratch)
              (root, ins.meta, ins.mrs, ins.n)
            }
          }
          .collect()
      bcSnap.destroy()

      // Merge in access-id order (parallelize + collect preserve batch order),
      // replaying PR1 against the live index for the condensed property.
      for ((root, meta, mrs, n) <- results) {
        var i = 0
        while (i < n) {
          val y  = meta(i) & ~DirOutBit
          val mr = mrs(i)
          if ((meta(i) & DirOutBit) != 0) {
            if (!index.query(y, root, mr)) index.addOut(y, root, mr)
          } else {
            if (!index.query(root, y, mr)) index.addIn(y, root, mr)
          }
          i += 1
        }
      }
      start += batch.length
      batchSize = math.min(maxBatch, batchSize * 2)
    }
    bcGraph.destroy()
    bcAid.destroy()
    index
  }
}
