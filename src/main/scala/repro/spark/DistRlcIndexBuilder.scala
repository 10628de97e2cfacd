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

  /** Per-task inserter: PR2 by the snapshot's access ids; PR1 against the frozen snapshot
    * plus `overlay`, this task's own entries keyed like `meta`. Every
    * overlay entry has hop = root, and no snapshot entry has root or a later
    * vertex as hop, so PR1's Case 2 can hold only through the overlay: the
    * entry itself, or for `insertIn(root, mr)` `(root, mr)` in `L_out(root)`.
    * The mirror term of `insertOut` never holds, because [[Kbs.run]] runs
    * the backward search (`insertOut`) before the forward one (DESIGN.md §6).
    * Case 1 needs only the snapshot.
    */
  private final class TaskInserter(snap: FlatRlcIndex, root: Int) extends Inserter {
    private val aid = snap.aid
    private val overlay = new java.util.HashMap[Integer, java.util.HashSet[java.lang.Long]]()
    var meta: Array[Int] = new Array[Int](16)
    var mrs: Array[Long] = new Array[Long](16)
    var n: Int = 0

    private def has(key: Int, mr: Long): Boolean = {
      val s = overlay.get(key); s != null && s.contains(mr)
    }
    private def record(key: Int, mr: Long): Boolean = {
      overlay.computeIfAbsent(key, _ => new java.util.HashSet[java.lang.Long](4)).add(mr)
      if (n == meta.length) {
        meta = java.util.Arrays.copyOf(meta, n * 2)
        mrs = java.util.Arrays.copyOf(mrs, n * 2)
      }
      meta(n) = key; mrs(n) = mr; n += 1
      true
    }

    def insertOut(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(y, root, mr^+)
      aid(root) <= aid(y) && !has(y | DirOutBit, mr) && !snap.caseOneJoin(y, root, mr) &&
        record(y | DirOutBit, mr)

    def insertIn(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(root, y, mr^+)
      aid(root) <= aid(y) && !has(y, mr) && !(y == root && has(root | DirOutBit, mr)) &&
        !snap.caseOneJoin(root, y, mr) && record(y, mr)
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
            val snap    = bcSnap.value
            val scratch = new KbsScratch(graph.numVertices, k)
            roots.map { root =>
              val ins = new TaskInserter(snap, root)
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
    index
  }
}
