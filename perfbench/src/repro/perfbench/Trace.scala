package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** One timed interval around a call into a layer. `trace` groups the spans
  * of one query or one setup stage; `parent` is -1 for a root span.
  */
final case class Span(id: Int, trace: String, name: String, parent: Int,
                      start: Long, end: Long) {
  def nanos: Long = end - start
}

/** In-memory span recorder. Spans nest by call order on one thread: a span
  * opened inside another becomes its child.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer[Span]()
  private var open  = List.empty[Int]
  private var trace = ""

  def all: IndexedSeq[Span] = spans.toIndexedSeq

  /** Run `body` as the root span `name` of a new trace `traceId`. */
  def root[A](traceId: String, name: String)(body: => A): A = {
    val outer = trace
    trace = traceId
    try span(name)(body) finally trace = outer
  }

  def span[A](name: String)(body: => A): A = {
    val id     = spans.size + open.size
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      spans += Span(id, trace, name, parent, t0, t1)
    }
  }

  def byName(name: String): IndexedSeq[Span] = spans.iterator.filter(_.name == name).toIndexedSeq

  /** Seconds spent in spans `name` of trace `traceId`. */
  def seconds(traceId: String, name: String): Double =
    spans.iterator.filter(s => s.trace == traceId && s.name == name).map(_.nanos).sum / 1e9
}

object Trace {

  /** Self time of every span: its duration minus those of its direct
    * children. Spans nest by call order on one thread, so siblings never
    * overlap.
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val childNanos = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.nanos).sum }
    spans.map(s => s.id -> (s.nanos - childNanos.getOrElse(s.id, 0L))).toMap
  }

  /** Write spans (name, start, end, parent, trace id, self time) as JSON. */
  def write(file: File, stamp: Seq[(String, Any)], spans: Seq[Span]): Unit = {
    file.getParentFile.mkdirs()
    val self = selfNanos(spans)
    val pw = new PrintWriter(file, "UTF-8")
    try {
      pw.println("{\"stamp\": " + Json.obj(stamp) + ",")
      pw.println("\"spans\": [")
      spans.sortBy(_.id).iterator.zipWithIndex.foreach { case (s, i) =>
        val sep = if (i + 1 < spans.size) "," else ""
        pw.println(Json.obj(Seq("id" -> s.id, "trace" -> s.trace, "name" -> s.name,
          "parent" -> s.parent, "start_ns" -> s.start, "end_ns" -> s.end,
          "self_ns" -> self(s.id))) + sep)
      }
      pw.println("]}")
    } finally pw.close()
  }
}

/** Just enough JSON writing for the result line, the stamp and the spans. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def value(v: Any): String = v match {
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case f: Float             => value(f.toDouble)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case b: Boolean           => b.toString
    case s: String            => str(s)
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) =>
      obj(kv.asInstanceOf[Seq[(String, Any)]])
    case other => str(other.toString)
  }

  def obj(kv: Seq[(String, Any)]): String =
    kv.map { case (k, v) => str(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
