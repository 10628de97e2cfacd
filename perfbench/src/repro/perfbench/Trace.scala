package repro.perfbench

import com.fasterxml.jackson.databind.node.ArrayNode
import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Spans recorded at layer boundaries in a traced run: name, start, end and
  * parent span, in nanoseconds since the trace began. Kept in memory and
  * written once at the end. An untraced run records nothing; both log each
  * span's duration to standard error.
  */
final class Trace(val enabled: Boolean) {
  final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long)

  private val nano0  = System.nanoTime()
  private val epoch0 = System.currentTimeMillis()
  private val spans  = ArrayBuffer.empty[Span]
  private var open   = List.empty[Int]

  /** Id of the innermost open span, or -1 at top level. */
  def current: Int = open.headOption.getOrElse(-1)

  def span[A](name: String)(body: => A): A = {
    val id = spans.size
    val start = System.nanoTime() - nano0
    if (enabled) {
      spans += Span(id, name, current, start, -1L)
      open = id :: open
    }
    try body
    finally {
      val end = System.nanoTime() - nano0
      if (enabled) {
        open = open.tail
        spans(id) = spans(id).copy(endNs = end)
      }
      Console.err.println(f"perfbench: [${end / 1e9}%7.2fs] $name ${(end - start) / 1e9}%.3fs")
    }
  }

  /** Record a finished span whose bounds are wall-clock epoch milliseconds
    * (Spark listener events carry those).
    */
  def addEpochSpan(name: String, parent: Int, startMs: Long, endMs: Long): Unit =
    if (enabled)
      spans += Span(spans.size, name, parent, (startMs - epoch0) * 1000000L, (endMs - epoch0) * 1000000L)

  def toJson: ArrayNode = {
    val out = Report.mapper.createArrayNode()
    for (s <- spans)
      out.addObject().put("id", s.id).put("name", s.name).put("parent", s.parent)
        .put("start_ns", s.startNs).put("end_ns", s.endNs)
    out
  }
}

/** Garbage-collector totals, read before and after a timed part. */
final case class GcReading(count: Long, millis: Long) {
  def -(o: GcReading): GcReading = GcReading(count - o.count, millis - o.millis)
}

object Jvm {
  private def gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def gc: GcReading = GcReading(
    gcBeans.map(_.getCollectionCount).filter(_ >= 0).sum,
    gcBeans.map(_.getCollectionTime).filter(_ >= 0).sum)

  def gcNames: String = gcBeans.map(_.getName).mkString(", ")

  /** Heap in use after full collections. */
  def usedAfterGc(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc(); System.gc()
    mem.getHeapMemoryUsage.getUsed
  }

  /** Heap retained by the object in `box(0)`: used heap after full GC with
    * it reachable, minus without it. Clears `box(0)`, so the caller must hold
    * no other reference.
    */
  def retainedBytes(box: Array[AnyRef]): Long = {
    val withIt = usedAfterGc()
    box(0) = null
    withIt - usedAfterGc()
  }
}
