// Command extsql is an interactive SQL shell for the extdb engine with
// all four data cartridges pre-installed. Statements end with ';'.
//
// Usage:
//
//	extsql [-db path] [-f script.sql]
//
// Meta commands: \tables, \plan <query>, \stats, \waits, \flight,
// \batch [n], \parallel [n|auto], \quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	extdb "repro"
)

func main() {
	dbPath := flag.String("db", "", "database file (empty = in-memory)")
	script := flag.String("f", "", "execute statements from file, then exit")
	flag.Parse()

	db, err := extdb.Open(extdb.Options{Path: *dbPath})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()
	s := db.NewSession()
	for _, install := range []func(*extdb.DB, *extdb.Session) error{
		extdb.InstallTextCartridge, extdb.InstallSpatialCartridge,
		extdb.InstallVIRCartridge, extdb.InstallChemCartridge,
	} {
		if err := install(db, s); err != nil {
			fmt.Fprintln(os.Stderr, "cartridge install:", err)
			os.Exit(1)
		}
	}

	var in io.Reader = os.Stdin
	interactive := true
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}
	if interactive {
		fmt.Println("extsql — extensible-indexing SQL shell (cartridges: text, spatial, vir, chem)")
		fmt.Println(`end statements with ';'; \tables lists tables; \quit exits`)
	}

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if !interactive {
			return
		}
		if buf.Len() == 0 {
			fmt.Print("SQL> ")
		} else {
			fmt.Print("  -> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !meta(db, s, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			run(s, strings.TrimSpace(buf.String()))
			buf.Reset()
		}
		prompt()
	}
}

func meta(db *extdb.DB, s *extdb.Session, cmd string) bool {
	switch {
	case cmd == `\quit` || cmd == `\q`:
		return false
	case cmd == `\tables`:
		var names []string
		for _, t := range db.Catalog().Tables() {
			if !t.Hidden {
				names = append(names, fmt.Sprintf("%s (%d rows)", strings.ToUpper(t.Name), t.RowCount))
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(" ", n)
		}
	case strings.HasPrefix(cmd, `\plan `):
		run(s, "EXPLAIN PLAN FOR "+strings.TrimSuffix(strings.TrimPrefix(cmd, `\plan `), ";"))
	case cmd == `\batch`:
		fmt.Printf("fetch batch size: %d\n", db.DefaultFetchBatch)
	case strings.HasPrefix(cmd, `\batch `):
		var n int
		if _, err := fmt.Sscanf(strings.TrimPrefix(cmd, `\batch `), "%d", &n); err != nil || n < 1 {
			fmt.Println(`usage: \batch [n]   (n >= 1 sets the ODCI Fetch batch size)`)
			break
		}
		db.DefaultFetchBatch = n
	case cmd == `\parallel`:
		if n := s.Parallel(); n > 1 {
			fmt.Printf("parallel degree: %d\n", n)
		} else {
			fmt.Println("parallel degree: 1 (serial)")
		}
	case strings.HasPrefix(cmd, `\parallel `):
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, `\parallel `))
		if arg == "auto" {
			s.SetParallel(0)
			fmt.Printf("parallel degree: %d (auto = GOMAXPROCS)\n", s.Parallel())
			break
		}
		var n int
		if _, err := fmt.Sscanf(arg, "%d", &n); err != nil || n < 0 {
			fmt.Println(`usage: \parallel [n|auto]   (n > 1 enables parallel scans, 1 = serial, auto = GOMAXPROCS)`)
			break
		}
		s.SetParallel(n)
	case cmd == `\stats`:
		fmt.Print(db.Metrics().String())
	case cmd == `\waits`:
		fmt.Println(db.Metrics().Waits.String())
	case cmd == `\flight`:
		lines := db.FlightRecorder().Dump()
		if len(lines) == 0 {
			fmt.Println("flight recorder: no events")
			break
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	default:
		fmt.Println("unknown meta command; try \\tables, \\stats, \\waits, \\flight, \\plan <query>, \\batch [n], \\parallel [n|auto], \\quit")
	}
	return true
}

func run(s *extdb.Session, stmt string) {
	start := time.Now()
	up := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(up, "SELECT") || strings.HasPrefix(up, "EXPLAIN") {
		rs, err := s.Query(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printResult(rs)
		fmt.Printf("%d row(s) in %v\n", len(rs.Rows), time.Since(start).Round(time.Microsecond))
		return
	}
	res, err := s.Exec(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ok, %d row(s) affected in %v\n", res.RowsAffected, time.Since(start).Round(time.Microsecond))
}

func printResult(rs *extdb.ResultSet) {
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for r, row := range rs.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			cells[r][c] = v.String()
			if len(cells[r][c]) > widths[c] {
				widths[c] = len(cells[r][c])
			}
		}
	}
	var sep strings.Builder
	for _, w := range widths {
		sep.WriteString("+" + strings.Repeat("-", w+2))
	}
	sep.WriteString("+")
	fmt.Println(sep.String())
	for i, c := range rs.Columns {
		fmt.Printf("| %-*s ", widths[i], c)
	}
	fmt.Println("|")
	fmt.Println(sep.String())
	for _, row := range cells {
		for c, v := range row {
			fmt.Printf("| %-*s ", widths[c], v)
		}
		fmt.Println("|")
	}
	fmt.Println(sep.String())
}
