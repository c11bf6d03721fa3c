let hooked =
  [ "fwrite"; "fclose"; "fopen"; "fread"; "close"; "write"; "fputc"; "read";
    "fputs"; "open"; "fcntl"; "fstat"; "munmap"; "mmap"; "dlopen"; "stat";
    "fgets"; "socket"; "connect"; "send"; "recv"; "dlsym"; "bind"; "dlclose";
    "ioctl"; "listen"; "mkdir"; "accept"; "select"; "getc"; "rename"; "sendto";
    "recvfrom"; "fdopen"; "mprotect"; "remove"; "kill"; "fork"; "execve";
    "chown"; "ptrace"; "sysconf"; "fprintf" ]

let sinks = [ "fwrite"; "write"; "fputc"; "fputs"; "send"; "sendto"; "fprintf" ]

let modeled_libc =
  [ "memcpy"; "free"; "malloc"; "memset"; "strlen"; "strcmp"; "realloc";
    "strcpy"; "memcmp"; "strncmp"; "memmove"; "sprintf"; "strncpy"; "fprintf";
    "strchr"; "snprintf"; "calloc"; "strstr"; "atoi"; "strrchr"; "memchr";
    "strcat"; "sscanf"; "vsnprintf"; "strcasecmp"; "strdup"; "strncasecmp";
    "strtoul"; "sysconf"; "vsprintf"; "vfprintf"; "atol" ]

let modeled_libm =
  [ "sin"; "pow"; "cos"; "sqrt"; "floor"; "log"; "strtod"; "strtol"; "exp";
    "atan2"; "sinf"; "ceil"; "cosf"; "sqrtf"; "tan"; "acos"; "log10"; "atan";
    "asin"; "ldexp"; "sinh"; "cosh"; "fmod"; "powf"; "atan2f"; "expf" ]
