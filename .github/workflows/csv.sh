# Sourced by the *-smoke.sh scripts.
#
# csv_row_ok FILE COND succeeds when the awk condition COND holds on the
# first data row of the CSV FILE. COND reads a column by its header name
# through col("name"), so adding or moving a column cannot shift a check; a
# name the header lacks, or a file without a data row, fails the check.
csv_row_ok() {
  awk -F, '
    function col(name) {
      if (!(name in idx)) { print "csv: no column " name > "/dev/stderr"; exit 2 }
      return $idx[name]
    }
    NR == 1 { for (i = 1; i <= NF; i++) idx[$i] = i; next }
    NR == 2 { exit !('"$2"') }
    END { if (NR < 2) exit 1 }
  ' "$1"
}
