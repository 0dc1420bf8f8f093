package repro

import java.sql.DriverManager

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(got, sql, tables)`` loads each of ``tables`` into
  * DuckDB (via JDBC, in-process) as VARCHAR columns, runs ``sql`` over them
  * and asserts its rows equal ``got``'s, in any order — "it ran" is not
  * "it is correct". Every side is a set of named columns and local rows.
  *
  * Name ``got``'s columns as ``sql`` aliases its output columns. Pass
  * scalar values only; doubles are compared to 6 decimals.
  */
object Oracle {

  /** Named columns and their rows, one value per column. */
  final case class Rows(cols: Seq[String], rows: Seq[Seq[Any]])

  private def canon(r: Rows): Seq[Seq[String]] = {
    val idx = r.cols.sorted.map(r.cols.indexOf)
    r.rows
      .map(row => idx.map { i =>
        row(i) match {
          case null                     => "∅"
          case d: Double                => f"$d%.6f"
          case f: Float                 => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                        => x.toString
        }
      })
      .sortBy(_.mkString("\u0000")) // separated, so ("1","23") and ("12","3") differ
  }

  def assertEquivalent(got: Rows, sql: String, tables: (String, Rows)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, t) <- tables) {
        conn.createStatement.execute(
          s"CREATE TABLE $name (${t.cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Loaded row by row; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${t.cols.map(_ => "?").mkString(",")})"
        )
        t.rows.foreach { r =>
          t.cols.indices.foreach(i => ps.setString(i + 1, Option(r(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => dCols.indices.map(i => r.getObject(i + 1)))
        .toSeq
      require(
        dCols.map(_.toLowerCase).toSet == got.cols.map(_.toLowerCase).toSet,
        s"column mismatch: got=${got.cols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val g = canon(got)
      val exp = canon(Rows(dCols, dRows))
      require(g == exp,
        s"result mismatch (${g.size} vs ${exp.size} rows):\n" +
        s"  first got-only:  ${g.diff(exp).take(3)}\n" +
        s"  first duck-only: ${exp.diff(g).take(3)}"
      )
    } finally conn.close()
  }
}
