package repro.exp

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.math.BigDecimal.RoundingMode

/** The "measured" cells of EXPERIMENTS.md's Tables 3 to 7 and 9, of its
  * measured Karate grid of Table 8 and of the BA_d Table 8 values its prose
  * quotes against the `[tableN]` lines of `bench_output.txt` they
  * transcribe. A cell matches when the artifact's
  * value, rounded half-up to the digits the cell shows, is the cell;
  * thousands separators and `–` for `-` are allowed, and the scaled
  * networks drop their `~`.
  */
class ExperimentsTranscriptionSpec extends AnyFunSuite {

  private def lines(file: String): Seq[String] =
    Files.readAllLines(Paths.get(file)).asScala.toSeq

  /** The first table after the first line starting with `caption`, header
    * row included, as trimmed columns; an escaped `\|` does not end a
    * column.
    */
  private def tableAfter(caption: String): Seq[Seq[String]] =
    lines("EXPERIMENTS.md").dropWhile(!_.startsWith(caption)).drop(1)
      .dropWhile(!_.startsWith("| ")).takeWhile(_.startsWith("|"))
      .filter(!_.startsWith("|---"))
      .map(_.split("(?<!\\\\)\\|").map(_.trim).filter(_.nonEmpty).toSeq)

  /** The rows of the first table under `## Table <table>`, header dropped. */
  private def rows(table: Int): Seq[Seq[String]] = tableAfter(s"## Table $table ").tail

  /** The measured column (the third) of the rows of `## Table <table>`, by
    * first column, split into cells at ` / `.
    */
  private def measured(table: Int): Map[String, Seq[String]] =
    rows(table).map(cols => cols(0) -> cols(2).split(" / ").toSeq).toMap

  /** The first table after the line starting with `caption`, a grid of
    * rows by first column and columns by header, keyed `"<row> <column>"`,
    * each cell split at ` / `.
    */
  private def grid(caption: String): Map[String, Seq[String]] = {
    val rows = tableAfter(caption)
    val header = rows.head
    rows.tail.flatMap { r =>
      header.indices.tail.map(c => s"${r.head} ${header(c)}" -> r(c).split(" / ").toSeq)
    }.toMap
  }

  /** The `[tag]` rows of bench_output.txt after the header, as fields. */
  private def artifact(tag: String): Seq[Seq[String]] =
    lines("bench_output.txt").filter(_.startsWith(s"[$tag] ")).drop(1)
      .map(_.split("\\s+").toSeq.drop(1))

  private def agrees(cell: String, value: String): Boolean =
    cell.replace(",", "").replace("–", "-") match {
      case "-" => value == "-"
      case ">max" => value == ">max"
      case _ if value == "-" => false
      case c =>
        val (shown, exact) = (BigDecimal(c), BigDecimal(value))
        shown.scale <= exact.scale && exact.setScale(shown.scale, RoundingMode.HALF_UP) == shown
    }

  private def check(cells: Map[String, Seq[String]], rows: Map[String, Seq[String]]): Unit = {
    assert(cells.keySet == rows.keySet)
    for ((row, cs) <- cells) {
      assert(cs.size == rows(row).size, row)
      cs.zip(rows(row)).foreach { case (c, v) =>
        assert(agrees(c, v), s"$row: EXPERIMENTS.md shows $c, bench_output.txt has $v")
      }
    }
  }

  test("the cell check rounds to the shown digits, reads separators and dashes") {
    assert(agrees("3.767", "3.7667") && agrees("378.0", "377.9667") && agrees("5,242", "5242"))
    assert(agrees("–", "-") && agrees("0.26", "0.26"))
    assert(!agrees("3.766", "3.7667") && !agrees("0.260", "0.26") && !agrees("–", "0.00"))
    assert(!agrees("5,243", "5242") && !agrees("1.0", "-"))
  }

  test("Table 3 measured cells transcribe the [table3] lines") {
    val cells = measured(3)
    assert(cells.size == 8)
    check(cells, artifact("table3").map(f => f.head.stripSuffix("~") -> f.tail).toMap)
  }

  test("Table 4 measured cells transcribe the [table4] lines") {
    val cells = measured(4)
    assert(cells.size == 8)
    check(cells, artifact("table4").map(f => s"${f(0)} ${f(1)}" -> f.drop(2)).toMap)
  }

  test("Table 5 measured rows transcribe the [table5] lines; >N is >max at a 2^N grid maximum") {
    val cells = rows(5).map { cols =>
      val Seq(network, model, k) = cols(0).replace(" k=", " ").split(" ").toSeq
      val cfg = BenchPlan.sweepRow(network, model, k.toInt).get.cfg
      val gridMax = Seq(cfg.oneshotMax, cfg.snapshotMax, cfg.risMax)
      cols(0) -> cols(2).replace("\\|", " ").split("\\s+").toSeq.zipWithIndex.map {
        case (c, i) if i % 2 == 0 && c.startsWith(">") =>
          if ((1L << c.tail.toInt) == gridMax(i / 2)) ">max" else c
        case (c, _) => c
      }
    }.toMap
    assert(cells.size == 14 && cells.values.forall(_.size == 6))
    val out = artifact("table5").map(f => s"${f(0)} ${f(1)} k=${f(2)}" -> f.drop(3).filter(_ != "|"))
    check(cells, out.filter(l => cells.contains(l._1)).toMap)
  }

  test("Table 6 measured cells transcribe the [table6] lines") {
    val cells = measured(6).map { case (row, cs) => row -> cs.map(_.stripSuffix(" — **exact**")) }
    assert(cells.size == 15)
    check(cells, artifact("table6").map(f => s"${f(0)} ${f(1)}" -> f.drop(2)).toMap)
  }

  test("Table 7 measured number and size ratios transcribe the [table7] lines") {
    val out = artifact("table7").map(f => f.head.stripSuffix("~") +: f.tail.map(_.replace(",", "")))
    val numbers = measured(7)
    assert(numbers.size == 15)
    check(numbers, out.map(f => s"${f(0)} ${f(1)}" -> f.slice(3, 7))
                      .filter(l => numbers.contains(l._1)).toMap)
    val sizes = tableAfter("Size ratios").tail.map(cols => cols(0) -> Seq(cols(2).split(" \\(")(0))).toMap
    assert(sizes.size == 9)
    val models = Seq("UC0.1", "UC0.01", "IWC", "OWC")
    check(sizes, out.flatMap(f => models.indices.map(i => s"${f(0)} ${models(i)} k=${f(1)}" -> Seq(f(8 + i))))
                    .filter(l => sizes.contains(l._1)).toMap)
  }

  test("Table 9 measured cells transcribe the [table9] lines, paper values aside") {
    val cells = rows(9)
      .map(cols => s"${cols(0)} ${cols(1)}" -> cols.drop(2).map(_.split(" \\(")(0))).toMap
    assert(cells.size == 16 && cells.values.forall(_.size == 4))
    check(cells, artifact("table9")
      .map(f => s"${f(0)} ${f(1)}" -> f.drop(2).map(_.replace(",", ""))).toMap)
  }

  test("Table 8 measured Karate grid transcribes the Karate [table8] lines") {
    val cells = grid("Measured (Karate")
    assert(cells.size == 12 && cells.values.forall(_.size == 2))
    check(cells, artifact("table8").filter(_.head == "Karate")
      .map(f => s"${f(1)} ${f(2)}" -> f.drop(3)).toMap)
  }

  test("Table 8 BA_d values quoted in prose transcribe the BA_d [table8] lines") {
    val prose = lines("EXPERIMENTS.md").dropWhile(!_.startsWith("BA_d (paper's own"))
      .takeWhile(!_.startsWith("## ")).mkString(" ")
    def quoted(pattern: String): Seq[String] = {
      val m = pattern.r.findFirstMatchIn(prose)
      assert(m.isDefined, s"EXPERIMENTS.md's Table 8 prose quotes no /$pattern/")
      m.get.subgroups
    }
    val out = artifact("table8").filter(_.head == "BA_d").map(f => s"${f(1)} ${f(2)}" -> f.drop(3)).toMap
    check(Map("Oneshot UC0.1" -> quoted("Oneshot UC0.1 ([\\d,.]+)/([\\d,.]+) vs paper"),
              "Snapshot UC0.01" -> quoted("Snapshot UC0.01 edge ([\\d,.]+) vs paper"),
              "RIS UC0.01" -> quoted("RIS UC0.01 ([\\d,.]+)/([\\d,.]+) vs paper")),
          Map("Oneshot UC0.1" -> out("Oneshot UC0.1"),
              "Snapshot UC0.01" -> Seq(out("Snapshot UC0.01")(1)),
              "RIS UC0.01" -> out("RIS UC0.01")))
    // Oneshot's UC0.1 edge cost over its UC0.01 edge cost.
    val ratio = BigDecimal(out("Oneshot UC0.1")(1)) / BigDecimal(out("Oneshot UC0.01")(1))
    assert(agrees(quoted("Oneshot edge cost explode \\((\\d+)× its UC0.01 cost").head, ratio.toString))
  }
}
